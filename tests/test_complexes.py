"""Simplicial complexes, Smith forms, and integral homology."""

import random
from itertools import combinations

import pytest

import diskcomplex.complexes as complexes
from diskcomplex import (
    DomainError,
    HomologyProfile,
    SimplicialComplex,
    boundary_matrix,
    build_complex,
    flag_from_graph,
    pseudomanifold_check,
    reduced_homology,
    smith_normal_form,
)
from oracles import (
    maximal_cliques_brute,
    maximal_faces_quadratic,
    rational_rank,
    reduced_betti_and_torsion,
    sympy_invariants,
)

HOLLOW_TRIANGLE = [(0, 1), (1, 2), (0, 2)]

OCTAHEDRON = [
    (0, 2, 4), (0, 2, 5), (0, 3, 4), (0, 3, 5),
    (1, 2, 4), (1, 2, 5), (1, 3, 4), (1, 3, 5),
]

# minimal 6 vertex triangulation of the projective plane, boundary free
PROJECTIVE_PLANE = [
    (1, 2, 3), (1, 2, 4), (1, 3, 5), (1, 4, 6), (1, 5, 6),
    (2, 3, 6), (2, 4, 5), (2, 5, 6), (3, 4, 5), (3, 4, 6),
]


def snf_homology(c, max_degree=None):
    """Reduced homology from the Smith form of every boundary matrix.

    The per-degree path, kept as a reference for the pair removals in
    reduced_homology: betti_k = f_k - rank d_k - rank d_{k+1}, with the
    augmentation as d_0, and the torsion of H_k from d_{k+1}.
    """
    faces = c.faces_by_dim()
    top = c.dimension
    upto = top if max_degree is None else min(max_degree, top)
    cells = tuple(len(faces[k]) for k in range(min(top, upto + 1) + 1))
    ranks = {0: 1}
    invariants = {}
    for k in range(1, upto + 2):
        if k > top:
            ranks[k], invariants[k] = 0, ()
        else:
            invariants[k], ranks[k] = smith_normal_form(
                boundary_matrix(faces[k - 1], faces[k]))
    return HomologyProfile(
        betti=tuple(len(faces[k]) - ranks[k] - ranks[k + 1]
                    for k in range(upto + 1)),
        torsion=tuple(tuple(d for d in invariants[k + 1] if d > 1)
                      for k in range(upto + 1)),
        leftover=cells,
        cells=cells,
    )


def assert_matches_references(c, oracle=True):
    """reduced_homology agrees with snf_homology in every truncation, and
    with the rational-rank and sympy oracle where that is affordable."""
    for d in (None, *range(c.dimension + 1)):
        profile = reduced_homology(c, d)
        reference = snf_homology(c, d)
        assert profile == reference, d
        # a probe builds the cells up to one degree above max_degree only
        built = c.dimension if d is None else min(c.dimension, d + 1)
        assert len(profile.leftover) == len(profile.cells) == built + 1
        assert profile.cells == reference.cells, d
        if d is None:
            assert profile.cells == c.f_vector()
        if oracle:
            assert (profile.betti, profile.torsion) == (
                reduced_betti_and_torsion(c.facets, upto=d)), d


class TestSimplicialComplex:
    def test_from_facets_drops_dominated(self):
        c = SimplicialComplex.from_facets([(0, 1, 2), (0, 1), (3,)])
        assert c.facets == ((0, 1, 2), (3,))
        assert c.dimension == 2
        assert not c.is_pure()
        # duplicates, nested sub-facets and unsorted vertex order, against
        # the quadratic reference filter
        rng = random.Random(77)
        for _ in range(50):
            facets = [rng.sample(range(10), rng.randint(1, 5))
                      for _ in range(rng.randint(1, 30))]
            facets += [rng.sample(f, rng.randint(1, len(f)))
                       for f in rng.sample(facets, len(facets) // 2)]
            facets += rng.sample(facets, len(facets) // 3)
            rng.shuffle(facets)
            assert (SimplicialComplex.from_facets(facets).facets
                    == maximal_faces_quadratic(facets))

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            SimplicialComplex.from_facets([])

    def test_f_vector_and_euler(self):
        c = SimplicialComplex.from_facets(OCTAHEDRON)
        assert c.f_vector() == (6, 12, 8)
        assert c.euler_characteristic == 2

    def test_flag_complex_cliques(self):
        c = flag_from_graph(range(4), [(0, 1), (1, 2), (0, 2), (2, 3)])
        assert c.facets == ((0, 1, 2), (2, 3))

    def test_flag_complex_keeps_isolated_vertices(self):
        c = flag_from_graph(range(3), [(0, 1)])
        assert (2,) in c.facets

    @pytest.mark.parametrize("seed", range(20))
    def test_flag_complex_matches_clique_oracle(self, seed):
        rng = random.Random(2000 + seed)
        n = rng.randint(1, 10)
        p = rng.random()
        edges = [(a, b) for a in range(n) for b in range(a + 1, n)
                 if rng.random() < p]
        assert (flag_from_graph(range(n), edges).facets
                == maximal_cliques_brute(range(n), edges))

    @pytest.mark.parametrize("vertices, edges", [
        (range(6), []),
        (range(7), list(combinations(range(7), 2))),
        (range(3, 21, 2), [e for e in combinations(range(3, 21, 2), 2)
                           if e[1] - e[0] <= 6 or e[0] == 3]),
    ], ids=["edgeless", "complete", "sparse_ids"])
    def test_flag_complex_special_graphs(self, vertices, edges):
        assert (flag_from_graph(vertices, edges).facets
                == maximal_cliques_brute(vertices, edges))

    @pytest.mark.parametrize("vertices, edges", [
        ([], []),
        (range(3), [(0, 5)]),
    ])
    def test_flag_complex_rejects_bad_graphs(self, vertices, edges):
        with pytest.raises(DomainError):
            flag_from_graph(vertices, edges)


class TestSmithNormalForm:
    def test_identity(self):
        assert smith_normal_form([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == (
            (1, 1, 1),
            3,
        )

    def test_multiple_of_smaller(self):
        assert smith_normal_form([[2, 4], [4, 8]]) == ((2,), 1)

    def test_torsion_block(self):
        divisors, rank = smith_normal_form([[2, 0], [0, 3]])
        assert divisors == (1, 6) and rank == 2

    def test_zero_matrix(self):
        assert smith_normal_form([[0, 0], [0, 0]]) == ((), 0)

    def test_divisibility_chain(self):
        rng = random.Random(5)
        dense = [[[rng.randint(-6, 6) for _ in range(4)] for _ in range(3)]
                 for _ in range(25)]
        # sparse matrices of the sizes left over by the pair removals, where
        # eliminating a pivot fills in entries off its row and column
        sparse = [[[rng.choice((-3, -2, -1, 1, 2, 3)) if rng.random() < 0.15
                    else 0 for _ in range(n + extra)]
                   for _ in range(n)]
                  for n in range(8, 31, 2) for extra in (0, 6)]
        sparse += [[[rng.choice((-3, -2, -1, 1, 2, 3)) if rng.random() < 0.15
                     else 0 for _ in range(n + 12)]
                    for _ in range(n)]
                   for n in range(8, 31, 2)]
        for m in dense + sparse:
            divisors, rank = smith_normal_form(m)
            assert rank == len(divisors) == rational_rank(m)
            for a, b in zip(divisors, divisors[1:]):
                assert b % a == 0
            assert divisors == sympy_invariants(m)

    def test_sparse_dict_input(self):
        divisors, rank = smith_normal_form({(0, 0): 5, (1, 1): 10})
        assert divisors == (5, 10) and rank == 2


class TestReducedHomology:
    def test_single_point_is_trivial(self):
        profile = reduced_homology(SimplicialComplex.from_facets([(7,)]))
        assert profile.betti == (0,)
        assert profile.torsion == ((),)

    def test_hollow_triangle_is_a_circle(self):
        c = SimplicialComplex.from_facets(HOLLOW_TRIANGLE)
        profile = reduced_homology(c)
        assert profile.betti == (0, 1)
        assert profile.is_reduced_sphere(1)

    def test_octahedron_is_a_two_sphere(self):
        profile = reduced_homology(SimplicialComplex.from_facets(OCTAHEDRON))
        assert profile.betti == (0, 0, 1)
        assert profile.is_reduced_sphere(2)

    def test_projective_plane_torsion(self, monkeypatch):
        seen = []

        def spy(matrix):
            result = smith_normal_form(matrix)
            seen.append(result)
            return result

        monkeypatch.setattr(complexes, "smith_normal_form", spy)
        c = SimplicialComplex.from_facets(PROJECTIVE_PLANE)
        assert c.f_vector() == (6, 15, 10)
        profile = reduced_homology(c)
        assert profile.betti == (0, 0, 0)
        assert profile.torsion == ((), (2,), ())
        assert not profile.is_reduced_sphere(2)
        # unit pairs cannot remove the Z/2, so cells of degrees 1 and 2
        # are left over and the Smith form finds the invariant factor 2
        assert profile.leftover[1] > 0 and profile.leftover[2] > 0
        assert any(2 in divisors for divisors, _ in seen)

    def test_two_points_disconnected(self):
        profile = reduced_homology(SimplicialComplex.from_facets([(0,), (1,)]))
        assert profile.betti == (1,)

    def test_max_degree_truncates(self, chain2, chain3):
        profile = reduced_homology(
            SimplicialComplex.from_facets(OCTAHEDRON), max_degree=1
        )
        assert profile.betti == (0, 0)
        assert_matches_references(SimplicialComplex.from_facets(OCTAHEDRON))
        assert_matches_references(
            SimplicialComplex.from_facets(PROJECTIVE_PLANE))
        # the interval spheres; the dense oracle is affordable at g=2 only
        assert_matches_references(build_complex(chain2).complex)
        assert_matches_references(build_complex(chain3).complex, oracle=False)

    def test_boundary_squares_to_zero(self):
        c = SimplicialComplex.from_facets(OCTAHEDRON)
        faces = c.faces_by_dim()
        d1 = boundary_matrix(faces[0], faces[1])
        d2 = boundary_matrix(faces[1], faces[2])
        n0, n2 = len(faces[0]), len(faces[2])
        composed = [[0] * n2 for _ in range(n0)]
        for (r, c1), v in d1.items():
            for c2 in range(n2):
                composed[r][c2] += v * d2.get((c1, c2), 0)
        assert all(v == 0 for row in composed for v in row)

    @pytest.mark.parametrize("seed", range(20))
    def test_random_flag_complexes_match_oracle(self, seed):
        rng = random.Random(1000 + seed)
        n = rng.randint(4, 8)
        edges = [
            (a, b)
            for a in range(n)
            for b in range(a + 1, n)
            if rng.random() < 0.55
        ]
        assert_matches_references(flag_from_graph(range(n), edges))
        # and a complex that need not be flag, on the same vertices
        facets = [rng.sample(range(n), rng.randint(1, min(n, 5)))
                  for _ in range(rng.randint(1, 12))]
        assert_matches_references(SimplicialComplex.from_facets(facets))


class TestPseudomanifold:
    def test_octahedron_passes(self):
        report = pseudomanifold_check(SimplicialComplex.from_facets(OCTAHEDRON), 2)
        assert report.ok
        assert report.pure and report.ridges_ok and report.strongly_connected

    def test_open_book_fails_on_ridges(self):
        # three triangles share one edge
        c = SimplicialComplex.from_facets([(0, 1, 2), (0, 1, 3), (0, 1, 4)])
        report = pseudomanifold_check(c, 2)
        assert not report.ok
        assert (0, 1) in report.bad_ridges

    def test_disjoint_spheres_fail_connectivity(self):
        two = HOLLOW_TRIANGLE + [(5, 6), (6, 7), (5, 7)]
        report = pseudomanifold_check(SimplicialComplex.from_facets(two), 1)
        assert report.pure and report.ridges_ok
        assert not report.strongly_connected

    def test_impure_fails(self):
        c = SimplicialComplex.from_facets([(0, 1, 2), (3, 4)])
        assert not pseudomanifold_check(c, 2).ok
