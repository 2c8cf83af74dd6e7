"""Seeded property tests of the curve algebra on random words.

Standard library random only, with fixed seeds, so every run checks the
same 2,000 freely reduced words at genus 2..4, the same vertex pairs, the
same powers of random primitive roots and the same root pairs against the
ray-by-ray crossing count.  The simplicity test is checked exhaustively
instead, on every class that dies on a side at the brute-force sizes.
"""

import random

import pytest

from diskcomplex import (
    CurveClass,
    Side,
    algebraic_intersection,
    build_complex,
    canonical_unoriented,
    chain_surface,
    dies_on,
    geometric_intersection,
    inverse,
    is_simple,
    sample_gamma,
    self_intersection,
)
from diskcomplex import words as words_module
from diskcomplex.words import _linked_configurations
from oracles import canonical_class, crossings_by_rays, dying_classes
from test_sampler import BRUTE

WORDS = 2000


def crossing_configurations(order, u, v):
    return sum(1 for _ in _linked_configurations(order, u, v))


def random_reduced_word(rng, rank, max_len=10):
    word = []
    for _ in range(rng.randint(1, max_len)):
        letter = rng.choice([l for a in range(1, rank + 1) for l in (a, -a)
                             if not word or l != -word[-1]])
        word.append(letter)
    return tuple(word)


@pytest.fixture(scope="module")
def words():
    rng = random.Random(7)
    return [random_reduced_word(rng, 2 * rng.randint(2, 4)) for _ in range(WORDS)]


def rotations(word):
    return [word[s:] + word[:s] for s in range(len(word))]


class TestCanonicalUnoriented:
    def test_idempotent(self, words):
        for w in words:
            c = canonical_unoriented(w)
            assert canonical_unoriented(c) == c

    def test_invariant_under_rotation_and_inversion(self, words):
        for w in words:
            c = canonical_unoriented(w)
            for r in rotations(w) + rotations(inverse(w)):
                assert canonical_unoriented(r) == c

    def test_matches_the_least_key_sequence_oracle(self, words):
        for w in words:
            assert canonical_unoriented(w) == canonical_class(w)


class TestDiesOn:
    def test_invariant_under_rotation_and_inversion(self, words):
        # bounds_disk_sides runs the side test on canonical words only, which
        # is sound because dying on a side is a property of the class
        for w in words:
            for side in Side:
                want = dies_on(w, side)
                for r in rotations(w) + rotations(inverse(w)):
                    assert dies_on(r, side) == want


class TestIntersectionOnSampledPairs:
    @pytest.mark.parametrize("genus, budget, seed", [(2, 4, 11), (3, 4, 12), (4, 3, 13)])
    def test_symmetric_and_bounded_by_algebraic(self, genus, budget, seed):
        surface = chain_surface(genus)
        verts = sample_gamma(surface, budget).vertices
        rng = random.Random(seed)
        for _ in range(200):
            u, v = rng.choice(verts), rng.choice(verts)
            i = geometric_intersection(surface, u, v)
            assert geometric_intersection(surface, v, u) == i
            assert i >= abs(algebraic_intersection(surface, u, v))


ROOT_PAIRS = 300
SURFACES = {g: chain_surface(g) for g in (2, 3, 4)}


def power(root, k):
    return CurveClass.from_letters(root.letters * k)


@pytest.fixture(scope="module")
def root_pairs():
    """(surface, r, s, a, b): distinct primitive roots r, s and a, b in 1..3."""
    rng = random.Random(17)
    out = []
    while len(out) < ROOT_PAIRS:
        g = rng.randint(2, 4)
        r, s = (CurveClass.from_letters(random_reduced_word(rng, 2 * g))
                .root_and_power()[0] for _ in range(2))
        if r != s:
            out.append((SURFACES[g], r, s, rng.randint(1, 3), rng.randint(1, 3)))
    return out


class TestPowerFormulas:
    """The one crossing count, on equal and distinct roots alike."""

    def test_self_intersection_of_a_power(self, root_pairs):
        for surface, r, _, a, _ in root_pairs:
            si = self_intersection(surface, r)
            assert self_intersection(surface, power(r, a)) == a * a * si + a - 1

    def test_distinct_powers_of_one_root(self, root_pairs):
        crossed = 0
        for surface, r, _, a, b in root_pairs:
            if a == b:
                continue
            si = self_intersection(surface, r)
            got = geometric_intersection(surface, power(r, a), power(r, b))
            assert got == 2 * a * b * si, (r, a, b)
            crossed += si > 0
        assert crossed > 50  # the factor 2 ab is seen, not multiplied by 0

    def test_powers_of_distinct_roots(self, root_pairs):
        crossed = 0
        for surface, r, s, a, b in root_pairs:
            i = geometric_intersection(surface, r, s)
            got = geometric_intersection(surface, power(r, a), power(s, b))
            assert got == a * b * i, (r, s, a, b)
            crossed += i > 0 and a * b > 1
        assert crossed > 50

    def test_bounded_by_algebraic(self, root_pairs):
        for surface, r, s, a, b in root_pairs:
            for u, v in ((power(r, a), power(s, b)), (power(r, a), power(r, b))):
                i = geometric_intersection(surface, u, v)
                assert i >= abs(algebraic_intersection(surface, u, v))


ORACLE_PAIRS = 2000


class TestCrossingCountAgainstRays:
    """The branch-point count equals the count that orients every triple of
    rays from its three divergences, on pairs of primitive roots and on
    each root against itself."""

    @pytest.fixture(scope="class")
    def roots(self):
        rng = random.Random(23)
        out = []
        while len(out) < ORACLE_PAIRS:
            g = rng.randint(2, 4)
            r, s = (CurveClass.from_letters(random_reduced_word(rng, 2 * g))
                    .root_and_power()[0].letters for _ in range(2))
            out.append((SURFACES[g].rose_order, r, s))
        return out

    def test_distinct_pairs(self, roots):
        crossed = 0
        for order, r, s in roots:
            got = crossing_configurations(order, r, s)
            assert got == crossings_by_rays(order, r, s), (r, s)
            crossed += got > 0
        assert crossed > ORACLE_PAIRS // 4

    def test_each_root_with_itself(self, roots):
        crossed = 0
        for order, r, s in roots:
            for w in (r, s):
                got = crossing_configurations(order, w, w)
                assert got == crossings_by_rays(order, w, w), w
                crossed += got > 0
        assert crossed > ORACLE_PAIRS // 4

    def test_linked_configurations_listed_once_each(self, roots):
        # the generator the counts read yields every counted configuration,
        # once, inside [0, p) x [0, q)
        for order, r, s in roots:
            for u, v in ((r, s), (r, r)):
                linked = list(_linked_configurations(order, u, v))
                assert len(linked) == crossings_by_rays(order, u, v), (u, v)
                assert len(set(linked)) == len(linked)
                assert all(0 <= i < len(u) and 0 <= j < len(v) for i, j in linked)


def shared_letter(u, v, s, j) -> bool:
    """Whether the unpinned configuration (s, j) makes the forward u-ray
    start along a v-ray, so the scan must spell the two out."""
    return u[s] in (v[j], -v[j - 1])


def unpinned(u, v):
    return [
        (s, j) for s in range(len(u)) for j in range(len(v))
        if -u[s - 1] not in (v[j], -v[j - 1])
    ]


class TestTableAndSharedLetterBranches:
    """Configurations whose forward u-ray shares no first letter with a
    v-ray are tripods at the base, read from CyclicOrder._links; the others
    spell their rays out with _agreement.  Both branches are checked against
    the ray-by-ray count on every pair and self pair of two vertex sets."""

    @pytest.fixture(scope="class", params=["sample-3-4", "intervals-4"])
    def roots(self, request):
        if request.param == "sample-3-4":
            surface = SURFACES[3]
            classes = sample_gamma(surface, 4).vertices
        else:
            surface = SURFACES[4]
            classes = [v.curve for v in build_complex(surface).vertices]
        roots = [c.root_and_power()[0].letters for c in classes]
        return surface.rose_order, roots

    def test_against_rays_on_every_pair(self, roots, monkeypatch):
        order, roots = roots
        calls = []
        agreement = words_module._agreement

        def spy(*args):
            calls.append(args)
            return agreement(*args)

        monkeypatch.setattr(words_module, "_agreement", spy)
        seen = {(shared, linked): 0 for shared in (0, 1) for linked in (0, 1)}
        for a, u in enumerate(roots):
            for v in roots[a:]:
                want = crossings_by_rays(order, u, v)
                assert any(_linked_configurations(order, u, v)) == (want > 0)
                del calls[:]
                linked = set(_linked_configurations(order, u, v))
                assert len(linked) == want, (u, v)
                shared = [c for c in unpinned(u, v) if shared_letter(u, v, *c)]
                # two agreement scans per shared-letter configuration, none
                # for a configuration read from the table
                assert len(calls) == 2 * len(shared), (u, v)
                for c in unpinned(u, v):
                    seen[shared_letter(u, v, *c), c in linked] += 1
        # each branch both keeps and drops configurations
        assert min(seen.values()) > 100, seen

    @pytest.mark.parametrize("genus", [2, 3, 4, 5])
    def test_ahead_orients_as_cyc(self, genus):
        # reference: y comes before z on the counterclockwise walk from x
        order = chain_surface(genus).rose_order
        letters = order.letters
        assert len(order._ahead) == len(letters) == 4 * genus
        for i, x in enumerate(letters):
            d = order._ahead[x]
            walk = letters[i:] + letters[:i]
            for y in letters:
                for z in letters:
                    if len({x, y, z}) == 3:
                        ccw = walk.index(y) < walk.index(z)
                        assert (d[y] < d[z]) == ccw
                        assert order.cyc(x, y, z) == (1 if ccw else -1)


class TestSimplicityAgainstTheExactCount:
    """is_simple stops at the first linked configuration, so the sampler no
    longer counts the self-crossings of the classes it rejects.  Here every
    class that dies on a side at the BRUTE sizes gets the exact count, whose
    "must pair up" parity check runs on each, and is_simple must agree."""

    def test_every_dying_class(self):
        seen = {"simple": 0, "crossing": 0, "power": 0, "power of simple": 0}
        for genus, budget in BRUTE:
            surface = chain_surface(genus)
            for word in dying_classes(2 * genus, budget):
                c = CurveClass(word)
                si = self_intersection(surface, c)
                simple = is_simple(surface, c)
                assert simple == (si == 0), c
                root, k = c.root_and_power()
                if k > 1:
                    assert not simple, c
                    seen["power"] += 1
                    seen["power of simple"] += is_simple(surface, root)
                else:
                    seen["simple" if simple else "crossing"] += 1
        # each branch of the helper is reached, powers of simple roots too
        assert min(seen.values()) > 10, seen
