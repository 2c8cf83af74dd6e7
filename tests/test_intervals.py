"""Interval frontier classes and the complex they span."""

import collections

import pytest

from diskcomplex import (
    ChainSurface,
    CurveClass,
    InternalInvariantError,
    Interval,
    IntervalError,
    Side,
    all_intervals,
    bbm_vertices,
    bounds_disk_sides,
    build_complex,
    chain_surface,
    geometric_intersection,
    interval_walks,
    self_intersection,
    x_curve,
)
from diskcomplex.cli import run
from oracles import branch_crossing

# interval -> (canonical word, sides), worked out by hand on the chain
FROZEN_G2 = {
    (1, 1): ((1,), {"O"}),
    (1, 2): ((1, 2, -1, -2), {"O", "E"}),
    (1, 3): ((1, -3), {"O"}),
    (2, 2): ((2,), {"E"}),
    (2, 3): ((2, 3, -2, -3), {"O", "E"}),
    (2, 4): ((2, -4), {"E"}),
    (3, 3): ((3,), {"O"}),
    (3, 4): ((3, 4, -3, -4), {"O", "E"}),
    (4, 4): ((4,), {"E"}),
}

FROZEN_G2_EDGES = {
    (0, 1), (0, 2), (0, 6), (0, 7), (0, 8), (1, 2), (1, 3), (1, 8),
    (2, 3), (2, 4), (2, 6), (3, 4), (3, 5), (3, 8), (4, 5), (4, 6),
    (5, 6), (5, 7), (5, 8), (6, 7), (7, 8),
}


class TestInterval:
    def test_rejects_out_of_range_and_full(self):
        with pytest.raises(IntervalError):
            Interval(0, 2, 4)
        with pytest.raises(IntervalError):
            Interval(3, 2, 4)
        with pytest.raises(IntervalError):
            Interval(1, 4, 4)  # peripheral

    def test_predicted_side_parity(self):
        assert Interval(1, 2, 4).predicted_side is Side.O
        assert Interval(1, 3, 4).predicted_side is Side.O
        assert Interval(2, 4, 4).predicted_side is Side.E
        assert Interval(2, 2, 4).predicted_side is Side.E

    @pytest.mark.parametrize("g,count", [(2, 9), (3, 20), (4, 35)])
    def test_interval_count_is_g_times_2g_plus_1_minus_1(self, g, count):
        assert len(all_intervals(g)) == count == g * (2 * g + 1) - 1


class TestFrontierWalks:
    def test_even_intervals_have_one_component(self, chain2):
        for j, m in ((1, 2), (2, 3), (3, 4)):
            assert len(interval_walks(chain2, Interval(j, m, 4))) == 1

    def test_odd_intervals_have_two_components(self, chain2):
        for j, m in ((1, 1), (2, 2), (1, 3), (2, 4)):
            assert len(interval_walks(chain2, Interval(j, m, 4))) == 2

    def test_odd_choice_records(self, chain2):
        # [1,3]: both components die on the predicted side O and the
        # shortlex rule picks the shorter one
        c, sides, choice = x_curve(chain2, Interval(1, 3, 4))
        assert c.letters == (1, -3)
        assert sides == {Side.O}
        assert choice.rejected.letters == (1, 2, -3, -2)
        assert choice.predicted is Side.O
        assert choice.ambiguous

        c, sides, choice = x_curve(chain2, Interval(2, 4, 4))
        assert c.letters == (2, -4)
        assert sides == {Side.E}
        assert choice.rejected.letters == (2, 3, -4, -3)
        assert choice.predicted is Side.E
        assert choice.ambiguous

    def test_singleton_choices_are_unambiguous(self, chain2):
        for i in range(1, 5):
            c, _, choice = x_curve(chain2, Interval(i, i, 4))
            assert c.letters == (i,)
            assert not choice.ambiguous

    def test_even_interval_has_no_choice(self, chain2):
        c, sides, choice = x_curve(chain2, Interval(1, 2, 4))
        assert choice is None
        assert sides == {Side.O, Side.E}
        assert c.letters == (1, 2, -1, -2)


class TestVertexFamily:
    def test_frozen_genus_two_table(self, chain2):
        vertices, _ = bbm_vertices(chain2)
        assert len(vertices) == 9
        for v in vertices:
            word, sides = FROZEN_G2[(v.interval.j, v.interval.m)]
            assert v.curve.letters == word
            assert {s.value for s in v.sides} == sides

    @pytest.mark.parametrize("g,count", [(2, 9), (3, 20)])
    def test_vertex_counts(self, g, count):
        from diskcomplex import chain_surface

        vertices, _ = bbm_vertices(chain_surface(g))
        assert len(vertices) == count

    def test_all_vertices_simple_and_parity_sided(self, chain3):
        vertices, _ = bbm_vertices(chain3)
        for v in vertices:
            assert self_intersection(chain3, v.curve) == 0
            assert v.interval.predicted_side in v.sides

    def test_classes_pairwise_distinct(self, chain3):
        vertices, _ = bbm_vertices(chain3)
        assert len({v.curve for v in vertices}) == len(vertices)


class TestBrokenFrontierIsAnInvariantFailure:
    """A frontier that is not a disk vertex means the model is broken, so
    it raises InternalInvariantError (exit 1), not a CurveError (exit 2)."""

    def test_nonsimple_odd_frontiers(self, chain2, monkeypatch, capsys):
        walk_word = ChainSurface.walk_word
        monkeypatch.setattr(
            ChainSurface, "walk_word", lambda self, walk: walk_word(self, walk) * 2)
        with pytest.raises(InternalInvariantError, match="no frontier component"):
            x_curve(chain2, Interval(1, 3, 4))
        assert run(["bbm", "build", "-g", "2"]) == 1
        assert "invariant violated" in capsys.readouterr().err

    @pytest.mark.parametrize("letters", [(1, 1), None], ids=["nonsimple", "peripheral"])
    def test_vertex_that_is_not_a_disk_vertex(self, chain2, monkeypatch, letters):
        curve = chain2.boundary_class if letters is None else CurveClass(letters)
        monkeypatch.setattr(
            "diskcomplex.intervals.x_curve",
            lambda surface, interval: (curve, bounds_disk_sides(surface, curve), None))
        with pytest.raises(InternalInvariantError, match="not a simple essential"):
            bbm_vertices(chain2)


class TestOneDiskTestPerClass:
    def test_each_frontier_class_is_tested_once(self, monkeypatch):
        # x_curve tests both components of an odd interval and the one of
        # an even interval, and bbm_vertices takes the sides it returns
        calls = collections.Counter()

        def counting(surface, curve):
            calls[curve] += 1
            return bounds_disk_sides(surface, curve)

        monkeypatch.setattr("diskcomplex.intervals.bounds_disk_sides", counting)
        build_complex(chain_surface(4))
        assert sum(calls.values()) == len(calls) == 47


class TestDisjointnessAgainstBranchModel:
    """The double branched cover predicts every pairwise intersection
    number of the chosen classes from the branch sets alone."""

    @pytest.mark.parametrize("g", [2, 3, 4, 5, 6])
    def test_all_pairs(self, g):
        from diskcomplex import chain_surface

        S = chain_surface(g)
        vertices, _ = bbm_vertices(S)
        for a in range(len(vertices)):
            va = vertices[a]
            for b in range(a + 1, len(vertices)):
                vb = vertices[b]
                want = branch_crossing(
                    (va.interval.j, va.interval.m),
                    (vb.interval.j, vb.interval.m),
                )
                got = geometric_intersection(S, va.curve, vb.curve)
                assert got == want, (va.interval, vb.interval)

    @pytest.mark.parametrize("g", [2, 3, 4, 5])
    def test_every_lift_pairing(self, g):
        # Four crossing points upstairs split evenly between the lifts
        # (the deck involution swaps them), so each row and column of the
        # lift-by-lift grid sums to the same amount.  Two crossing odd
        # intervals with even branch overlap are the one genuinely
        # lift-dependent case: the grid is diagonal there, and the complex
        # relies on the coherent choice landing on the nonzero cells.
        from diskcomplex import chain_surface

        S = chain_surface(g)
        lifts = {}
        for iv in all_intervals(g):
            classes = {S.walk_class(w) for w in interval_walks(S, iv)}
            lifts[(iv.j, iv.m)] = sorted(classes, key=lambda c: c.letters)
        pairs = sorted(lifts)
        for a in range(len(pairs)):
            for b in range(a + 1, len(pairs)):
                jm_a, jm_b = pairs[a], pairs[b]
                grid = [
                    [geometric_intersection(S, u, v) for v in lifts[jm_b]]
                    for u in lifts[jm_a]
                ]
                want = branch_crossing(jm_a, jm_b)
                size_a = jm_a[1] - jm_a[0] + 1
                size_b = jm_b[1] - jm_b[0] + 1
                overlap = len(
                    set(range(jm_a[0], jm_a[1] + 2))
                    & set(range(jm_b[0], jm_b[1] + 2))
                )
                if want == 2 and size_a % 2 and size_b % 2:
                    assert overlap % 2 == 0
                    assert grid in ([[2, 0], [0, 2]], [[0, 2], [2, 0]]), (
                        jm_a, jm_b, grid)
                else:
                    assert all(x == want for row in grid for x in row), (
                        jm_a, jm_b, grid)


class TestBuildComplex:
    def test_frozen_genus_two_edges(self, chain2):
        build = build_complex(chain2)
        assert set(build.edges) == FROZEN_G2_EDGES

    def test_facets_are_triangles(self, chain2):
        build = build_complex(chain2)
        assert len({len(f) for f in build.complex.facets}) == 1
        assert build.complex.dimension == 2
        assert len(build.complex.facets) == 14

    def test_edges_are_exactly_nested_or_disjoint_pairs(self, chain2):
        build = build_complex(chain2)
        verts = build.vertices
        for a in range(len(verts)):
            for b in range(a + 1, len(verts)):
                jm_a = (verts[a].interval.j, verts[a].interval.m)
                jm_b = (verts[b].interval.j, verts[b].interval.m)
                expect_edge = branch_crossing(jm_a, jm_b) == 0
                assert ((a, b) in build.edges) == expect_edge
