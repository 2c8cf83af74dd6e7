"""Curve algebra: canonical forms, parsing, intersection numbers."""

import pytest

import diskcomplex.words as words
from diskcomplex import (
    CurveClass,
    CurveError,
    CyclicOrder,
    InternalInvariantError,
    TrivialWordError,
    algebraic_intersection,
    canonical_unoriented,
    cyclic_reduce,
    free_reduce,
    geometric_intersection,
    inverse,
    letter_key,
    parse_word,
    render_word,
    self_intersection,
)
from diskcomplex.words import _agreement
from oracles import christoffel_word, primitive_slopes, torus_slope_intersection


class TestWords:
    def test_letter_order_interleaves_inverses(self):
        ordered = sorted([1, -1, 2, -2, 3], key=letter_key)
        assert ordered == [1, -1, 2, -2, 3]

    def test_free_reduce_cancels_adjacent_inverses(self):
        assert free_reduce((1, 2, -2, -1, 3)) == (3,)
        assert free_reduce((1, -1)) == ()

    def test_zero_letter_rejected(self):
        with pytest.raises(CurveError):
            free_reduce((1, 0, 2))

    def test_cyclic_reduce_trims_conjugation(self):
        assert cyclic_reduce((2, 1, 3, -2)) == (1, 3)
        assert cyclic_reduce((1, 2, -1)) == (2,)

    def test_canonical_unoriented_considers_inverse(self):
        # inverse of (-1, 2) is (-2, 1), whose least rotation (1, -2) wins
        assert canonical_unoriented((-1, 2)) == (1, -2)
        assert canonical_unoriented((-2,)) == (2,)

    def test_trivial_word_raises(self):
        with pytest.raises(TrivialWordError):
            canonical_unoriented((1, -1))

    def test_parse_render_round_trip(self):
        w = parse_word("g1 -g3 g2")
        assert w == (1, -3, 2)
        assert render_word(w) == "g1 -g3 g2"
        with pytest.raises(CurveError):
            parse_word("h1")
        with pytest.raises(CurveError):
            parse_word("g5", rank=4)

    def test_curve_class_is_canonical_and_hashable(self):
        a = CurveClass.from_letters((2, 1))
        b = CurveClass.from_string("g1 g2")
        assert a == b and len({a, b}) == 1
        assert a.letters == (1, 2)

    def test_each_class_is_canonicalised_once(self, monkeypatch):
        calls = []
        canonical = words.canonical_unoriented

        def spy(letters):
            calls.append(letters)
            return canonical(letters)
        monkeypatch.setattr(words, "canonical_unoriented", spy)
        for w in [(2, 1), (-1,), (1, 2, -1, -2), (3, 1, 3, 1), (-2, 1, 2, 1)]:
            calls.clear()
            c = CurveClass.from_letters(w)
            assert calls == [w]
            assert c.letters == canonical(w)
        # a class built from letters is still checked, once
        calls.clear()
        assert CurveClass((1, 2)).letters == (1, 2) and calls == [(1, 2)]
        for w in [(2, 1), (1, -1, 2), (-1,), ()]:
            with pytest.raises((InternalInvariantError, TrivialWordError)):
                CurveClass(w)
        with pytest.raises(InternalInvariantError):
            CurveClass((2, 1))

    def test_root_and_power(self):
        c = CurveClass.from_letters((1, 2, 1, 2, 1, 2))
        root, k = c.root_and_power()
        assert root.letters == (1, 2) and k == 3
        assert CurveClass.from_letters((1, 2)).root_and_power()[1] == 1


class TestAgreementHorizon:
    """Valid input never reaches the horizon (see the words module), so the
    raise is exercised on corrupted input: rays that never part."""

    def test_counts_the_shared_letters(self):
        assert _agreement((1, 2, 3, 1), 1, (5, 2, 3, -1), 1, 3) == 2

    def test_agreeing_to_the_horizon_raises(self):
        ray = (1, 2) * 4
        with pytest.raises(InternalInvariantError, match="Fine-Wilf horizon"):
            _agreement(ray, 0, ray, 2, 6)


class TestCyclicOrder:
    def test_validates_coverage(self):
        with pytest.raises(Exception):
            CyclicOrder((1, -1, 2, 2))

    def test_cyc_orientation(self):
        rho = CyclicOrder((1, 2, -1, -2))
        assert rho.cyc(1, 2, -1) == 1
        assert rho.cyc(1, -1, 2) == -1


class TorusFixture:
    """One vertex rose for the one holed torus, standard rotation."""

    rose_order = CyclicOrder((1, 2, -1, -2))


class TestTorusOracle:
    """On the one holed torus the engine must match |ps - qr| exactly."""

    surface = TorusFixture()

    def test_slope_words_are_simple(self):
        for pq in primitive_slopes(3):
            w = CurveClass.from_letters(christoffel_word(*pq))
            assert self_intersection(self.surface, w) == 0, pq

    def test_exhaustive_slope_pairs_to_three(self):
        slopes = primitive_slopes(3)
        for i, pq in enumerate(slopes):
            u = CurveClass.from_letters(christoffel_word(*pq))
            for rs in slopes[i + 1:]:
                v = CurveClass.from_letters(christoffel_word(*rs))
                want = torus_slope_intersection(pq, rs)
                assert geometric_intersection(self.surface, u, v) == want, (pq, rs)

    def test_same_class_meets_itself_nowhere_when_simple(self):
        u = CurveClass.from_letters((1, 2))
        assert geometric_intersection(self.surface, u, u) == 0


class TestChainIntersections:
    """Frozen values on the genus 2 chain surface, hand checked."""

    CASES = [
        ((1,), (1, 1, 2), 1),
        ((1, 2), (1, -2), 2),
        ((1, -3), (2, -4), 1),
        ((1, 2, -1, -2), (1, -3), 0),
        ((3,), (1, 2, -1, -2), 2),
        ((1, 2, -1, -2), (3, 4, -3, -4), 4),
        ((1,), (1, -3), 0),
        ((2,), (1, -3), 0),
        ((4,), (1, -3), 1),
    ]

    @pytest.mark.parametrize("u,v,want", CASES)
    def test_frozen_pairs(self, chain2, u, v, want):
        cu = CurveClass.from_letters(u)
        cv = CurveClass.from_letters(v)
        assert geometric_intersection(chain2, cu, cv) == want

    @pytest.mark.parametrize("u,v,want", CASES)
    def test_symmetry(self, chain2, u, v, want):
        cu = CurveClass.from_letters(u)
        cv = CurveClass.from_letters(v)
        assert geometric_intersection(chain2, cv, cu) == want

    SELF_CASES = [
        ((1, 2), 0),
        ((1, 2, -1, 2), 1),
        ((1, 1, 2, 2), 1),
        ((1, 1), 1),
    ]

    @pytest.mark.parametrize("w,want", SELF_CASES)
    def test_frozen_self_intersections(self, chain2, w, want):
        assert self_intersection(chain2, CurveClass.from_letters(w)) == want

    def test_power_formulas(self, chain2):
        # SI(r^k) = k^2 SI(r) + (k - 1); distinct powers of one root
        # run parallel and meet in 2 a b SI(r) points.
        r = CurveClass.from_letters((1, 1, 2, 2))  # SI = 1
        r2 = CurveClass.from_letters((1, 1, 2, 2) * 2)
        r3 = CurveClass.from_letters((1, 1, 2, 2) * 3)
        assert self_intersection(chain2, r2) == 4 * 1 + 1
        assert self_intersection(chain2, r3) == 9 * 1 + 2
        assert geometric_intersection(chain2, r2, r3) == 2 * 2 * 3 * 1

    def test_simple_power_has_crossings_from_multiplicity_only(self, chain2):
        a = CurveClass.from_letters((1,))
        a2 = CurveClass.from_letters((1, 1))
        assert self_intersection(chain2, a) == 0
        assert self_intersection(chain2, a2) == 1  # k - 1 with k = 2


class TestAlgebraicIntersection:
    def test_consecutive_cores_pair_to_one(self, chain2):
        cores = [CurveClass.from_letters((i,)) for i in range(1, 5)]
        for a in range(4):
            for b in range(4):
                alg = algebraic_intersection(chain2, cores[a], cores[b])
                want = 1 if abs(a - b) == 1 else 0
                assert abs(alg) == want

    def test_bounded_by_geometric(self, chain2):
        words = [(1,), (2,), (1, 2), (1, -3), (2, -4), (1, 2, -1, -2),
                 (1, 2, 3), (1, -2, 3, -4)]
        classes = [CurveClass.from_letters(w) for w in words]
        for i, u in enumerate(classes):
            for v in classes[i + 1:]:
                alg = abs(algebraic_intersection(chain2, u, v))
                geo = geometric_intersection(chain2, u, v)
                assert alg <= geo

    def test_antisymmetry(self, chain2):
        u = CurveClass.from_letters((1, 2))
        v = CurveClass.from_letters((2, -4))
        assert algebraic_intersection(chain2, u, v) == -algebraic_intersection(
            chain2, v, u
        )
