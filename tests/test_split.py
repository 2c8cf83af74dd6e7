"""Cutting the chain surface along cores and interval frontiers."""

import itertools

import pytest

from diskcomplex import (
    CoreCurve,
    DomainError,
    HypothesisError,
    InternalInvariantError,
    IntervalError,
    NeighborhoodBoundary,
    RibbonGraph,
    SplitReport,
    UnsupportedCut,
    bookkeeping_check,
    all_intervals,
    build_complex,
    chain_surface,
    curve_table,
    cut_along,
    cut_walk,
    dims,
    parse_curve_token,
    x_curve,
)
from oracles import laminar_cut_pieces


class TestParseCurveToken:
    def test_core_token(self):
        c = parse_curve_token("z3")
        assert c == CoreCurve(3)
        assert str(c) == "z3"

    def test_neighborhood_token(self):
        c = parse_curve_token("x:2-5")
        assert c == NeighborhoodBoundary(2, 5)
        assert str(c) == "x:2-5"

    @pytest.mark.parametrize("bad", ["q7", "z1 ", "x:0-1", "z-2", "x:12", ""])
    def test_garbage_rejected(self, bad):
        with pytest.raises(DomainError, match="token"):
            parse_curve_token(bad)

    def test_range_check_is_deferred_to_the_cut(self):
        # the token grammar does not know the genus; cut_along does
        assert parse_curve_token("x:2-1") == NeighborhoodBoundary(2, 1)
        with pytest.raises(IntervalError):
            cut_along(chain_surface(2), ["x:2-1"])


class TestCutWalk:
    def test_torus_cut_to_pants(self):
        # the loop 1-2 has two frontier walks, (1,) and (2,); cutting one
        # leaves its annulus glued to the other side
        rose = RibbonGraph(rot=((1, 3, 2, 4),), rev=((1, 2), (3, 4)))
        cut = cut_walk(rose, (1,))
        assert [(c.genus, c.n_boundaries) for c in cut.components()] == [(0, 3)]
        assert cut.euler_characteristic == -1

    def test_chain_core_cut_preserves_euler(self):
        S = chain_surface(2)
        cut = cut_walk(S.graph, curve_table(S)[1, 1][0])
        assert cut.euler_characteristic == S.graph.euler_characteristic
        assert (cut.genus, cut.n_boundaries) == (1, 3)

    def test_new_darts_below_the_graphs(self):
        S = chain_surface(2)
        table = curve_table(S)
        cut = cut_walk(S.graph, table[1, 1][0])
        assert cut.darts > S.graph.darts  # every dart stays
        assert max(cut.darts - S.graph.darts) < min(0, *S.graph.darts)
        again = cut_walk(cut, table[3, 3][0])
        assert max(again.darts - cut.darts) < min(cut.darts)

    def test_walk_with_no_outgoing_edge_is_an_invariant_failure(self):
        # the boundary walk of the whole surface has no edge beyond it
        S = chain_surface(2)
        with pytest.raises(InternalInvariantError, match="no outgoing"):
            cut_walk(S.graph, S.boundary_walk)


# every row checked against Euler additivity and the boundary count below
FROZEN_CUTS = [
    (2, ["z1"], ((1, 3),)),
    (2, ["z3"], ((1, 3),)),
    (2, ["z1", "z3"], ((0, 5),)),
    (2, ["x:1-2"], ((1, 2), (1, 1))),
    (2, ["x:2-3"], ((1, 2), (1, 1))),
    (2, ["x:3-4"], ((1, 2), (1, 1))),
    (2, ["z2", "x:1-2"], ((1, 2), (0, 3))),
    (3, ["z1"], ((2, 3),)),
    (3, ["z1", "z3"], ((1, 5),)),
    (3, ["z1", "z3", "z5"], ((0, 7),)),
    (3, ["x:2-5"], ((2, 1), (1, 2))),
    (3, ["x:1-4"], ((2, 1), (1, 2))),
    (3, ["x:1-2", "x:5-6"], ((1, 3), (1, 1), (1, 1))),
    (3, ["z1", "x:3-4"], ((1, 4), (1, 1))),
    # a core cut in N_J once took new darts whose numbers z6 still had
    (4, ["z2", "z4", "z6", "x:1-4"], ((1, 4), (0, 5))),
    (3, ["z1", "z3", "z6", "x:1-4"], ((0, 5), (0, 4))),
    # frontiers one circle apart, nested, and nested around a core
    (3, ["x:1-2", "x:4-5"], ((1, 3), (1, 1), (1, 1))),
    (3, ["x:1-2", "x:1-4"], ((1, 2), (1, 2), (1, 1))),
    (3, ["x:1-4", "x:2-3"], ((1, 2), (1, 2), (1, 1))),
    (3, ["z1", "x:3-6", "x:4-5"], ((1, 2), (1, 1), (0, 4))),
    # odd intervals: one frontier walk, nonseparating, so one piece
    (3, ["x:1-3"], ((2, 3),)),
    (3, ["x:2-4"], ((2, 3),)),
    (3, ["x:1-5"], ((2, 3),)),
    (3, ["x:1-3", "z5"], ((1, 5),)),
    # x:i-i is z_i
    (2, ["x:1-1"], ((1, 3),)),
    (2, ["x:3-3"], ((1, 3),)),
]


def curve_tokens(g):
    """Cores and the frontiers of even intervals other than the full one."""
    n = 2 * g
    return [f"z{i}" for i in range(1, n + 1)] + [
        f"x:{j}-{m}"
        for j in range(1, n + 1)
        for m in range(j + 1, n + 1, 2)
        if (j, m) != (1, n)
    ]


def closed_form_pieces(g, tokens):
    """laminar_cut_pieces of a list of z<i> and x:<j>-<m> tokens."""
    cores = [int(t[1:]) for t in tokens if t.startswith("z")]
    intervals = [tuple(map(int, t[2:].split("-")))
                 for t in tokens if t.startswith("x")]
    return laminar_cut_pieces(g, cores, intervals)


def interval_sphere_facets(g):
    """Facets of the interval sphere as cut lists: [i,i] is z_i and any
    other [j,m] is x:j-m."""
    build = build_complex(chain_surface(g))
    names = [
        f"z{iv.j}" if iv.size == 1 else f"x:{iv.j}-{iv.m}"
        for iv in (v.interval for v in build.vertices)
    ]
    return [[names[v] for v in facet] for facet in build.complex.facets]


class TestCutAlong:
    @pytest.mark.parametrize("g, specs, components", FROZEN_CUTS)
    def test_frozen_components(self, g, specs, components):
        report = cut_along(chain_surface(g), specs)
        assert report.components == components
        assert report.ambient_genus == g
        assert report.ambient_boundaries == 1
        assert report.n_curves == len(specs)
        assert bookkeeping_check(report)

    def test_names_follow_input_order(self):
        S = chain_surface(3)
        assert cut_along(S, ["z1", "x:3-4"]).curve_names == ("z1", "x:3-4")
        assert cut_along(S, ["x:3-4", "z1"]).curve_names == ("x:3-4", "z1")

    def test_components_sorted_largest_first(self):
        report = cut_along(chain_surface(3), ["x:2-5"])
        assert report.components == tuple(
            sorted(report.components, reverse=True))

    @pytest.mark.parametrize("g", [2, 3, 4])
    def test_order_of_the_cuts_does_not_matter(self, g):
        S = chain_surface(g)

        def cut(specs):
            try:
                return cut_along(S, specs).components
            except UnsupportedCut:
                return None

        for k in range(1, 5):
            for specs in itertools.combinations(curve_tokens(g), k):
                components = cut(list(specs))
                assert components == cut(list(reversed(specs))), specs
                if components is not None:
                    assert components == closed_form_pieces(g, specs), specs

    @pytest.mark.parametrize("g, n_facets", [(2, 14), (3, 132), (4, 1430)])
    def test_facets_of_the_interval_sphere_cut_into_spheres(self, g, n_facets):
        # a facet is a maximal system of 2g - 1 disjoint curves, odd
        # intervals included, so it cuts the surface into g spheres with
        # holes
        S = chain_surface(g)
        facets = interval_sphere_facets(g)
        assert len(facets) == n_facets
        for specs in facets:
            components = cut_along(S, specs).components
            assert len(components) == g, specs
            assert all(genus == 0 for genus, _ in components), specs

    def test_crossing_cores_rejected(self):
        with pytest.raises(UnsupportedCut, match="intersect"):
            cut_along(chain_surface(2), ["z1", "z2"])

    def test_adjacent_intervals_rejected(self):
        # i(x_[1,2], x_[3,4]) = 4 at g = 2
        with pytest.raises(UnsupportedCut, match="intersect"):
            cut_along(chain_surface(2), ["x:1-2", "x:3-4"])

    def test_core_on_the_frontier_rejected(self):
        # i(z3, x_[1,2]) = 2 at g = 2
        with pytest.raises(UnsupportedCut, match="intersect"):
            cut_along(chain_surface(2), ["z3", "x:1-2"])

    def test_repeated_curve_rejected(self):
        with pytest.raises(UnsupportedCut, match="repeated"):
            cut_along(chain_surface(2), ["z1", "z1"])

    @pytest.mark.parametrize("specs", [["z1", "x:1-1"], ["x:1-1", "z1"]])
    def test_core_and_its_interval_are_one_curve(self, specs):
        with pytest.raises(UnsupportedCut, match="repeated"):
            cut_along(chain_surface(2), specs)

    def test_empty_cut_list_rejected(self):
        with pytest.raises(DomainError, match="nothing"):
            cut_along(chain_surface(2), [])

    def test_core_index_out_of_range(self):
        with pytest.raises(DomainError, match="core index"):
            cut_along(chain_surface(2), ["z9"])


class TestCurveTable:
    @pytest.mark.parametrize("g", [2, 3, 4, 5, 6])
    def test_each_interval_has_the_class_x_curve_chooses(self, g):
        S = chain_surface(g)
        table = curve_table(S)
        assert sorted(table) == [(iv.j, iv.m) for iv in all_intervals(g)]
        for iv in all_intervals(g):
            walk, curve = table[iv.j, iv.m]
            assert curve == x_curve(S, iv)[0], iv
            assert S.walk_class(walk) == curve, iv


class TestBookkeeping:
    def fake(self, g, b, n, comps):
        return SplitReport(
            ambient_genus=g,
            ambient_boundaries=b,
            n_curves=n,
            components=comps,
            curve_names=tuple("c%d" % i for i in range(n)),
        )

    def test_closed_ambient_consistent(self):
        # genus two split along one separating curve into two handles
        assert bookkeeping_check(self.fake(2, 0, 1, ((1, 1), (1, 1))))

    def test_closed_ambient_nonseparating(self):
        assert bookkeeping_check(self.fake(2, 0, 1, ((1, 2),)))

    def test_euler_mismatch_fails(self):
        assert not bookkeeping_check(self.fake(2, 0, 1, ((2, 2),)))

    def test_boundary_count_mismatch_fails(self):
        # Euler additivity holds but one cut cannot make five boundaries
        assert not bookkeeping_check(self.fake(2, 1, 1, ((0, 5),)))

    def test_real_reports_pass(self):
        for g, specs, _ in FROZEN_CUTS:
            assert bookkeeping_check(cut_along(chain_surface(g), specs))


DIMS_TABLE = {
    (2, 0): (2, 2),
    (3, 0): (4, 4),
    (4, 0): (6, 6),
    (2, 1): (2, 2),
    (2, 2): (3, 2),
    (3, 1): (4, 4),
    (0, 4): (0, 0),
    (0, 5): (1, 1),
    (0, 6): (2, 2),
    (1, 2): (1, 0),
    (1, 3): (2, 1),
}


class TestDims:
    @pytest.mark.parametrize("gb, want", sorted(DIMS_TABLE.items()))
    def test_frozen_values(self, gb, want):
        d = dims(*gb)
        assert (d.dimension, d.connectivity) == want
        assert (d.genus, d.boundaries) == gb

    @pytest.mark.parametrize(
        "gb", [(1, 0), (1, 1), (0, 0), (0, 2), (0, 3), (-1, 2), (2, -1)])
    def test_small_surfaces_rejected(self, gb):
        with pytest.raises(HypothesisError):
            dims(*gb)

    def test_connectivity_never_exceeds_dimension(self):
        for g in range(0, 6):
            for b in range(0, 8):
                if 2 * g - 2 + b < 2:
                    continue
                d = dims(g, b)
                assert 0 <= d.connectivity <= d.dimension
