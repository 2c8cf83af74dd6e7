"""Simplicial complexes, Smith forms, and integral homology."""

import random
from itertools import combinations

import pytest

import diskcomplex.complexes as complexes
from diskcomplex import (
    DomainError,
    SimplicialComplex,
    build_complex,
    chain_surface,
    collapse_dominated_edges,
    flag_from_graph,
    pseudomanifold_check,
    reduced_homology,
    smith_normal_form,
)
from oracles import (
    boundary_matrix,
    face_counts,
    faces_of,
    maximal_cliques_brute,
    maximal_faces_quadratic,
    rational_rank,
    reduced_betti_and_torsion,
    snf_homology,
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


def skeleton(c, d):
    """The (d + 1)-skeleton of c, built as a complex of its own."""
    return SimplicialComplex.from_facets(
        {s for f in c.facets for s in combinations(f, min(len(f), d + 2))})


def assert_matches_references(c, oracle=True):
    """reduced_homology agrees with snf_homology on every skeleton, and
    with the rational-rank and sympy oracle where that is affordable.

    The (d + 1)-skeleton has every d- and (d + 1)-face of c, so its
    homology in degrees up to d is that of c."""
    full = reduced_homology(c)
    for d in range(c.dimension + 1):
        s = skeleton(c, d)
        profile = reduced_homology(s)
        reference = snf_homology(s.facets)
        assert profile == reference, d
        # the reference counts faces it enumerates itself
        assert profile.cells == reference.cells, d
        assert len(profile.leftover) == s.dimension + 1
        assert profile.betti[:d + 1] == full.betti[:d + 1], d
        assert profile.torsion[:d + 1] == full.torsion[:d + 1], d
        if oracle:
            assert (profile.betti, profile.torsion) == (
                reduced_betti_and_torsion(s.facets)), d


class TestSimplicialComplex:
    def test_from_facets_keeps_nested_faces(self, chain3):
        c = SimplicialComplex.from_facets([(0, 1, 2), (0, 1), (3,)])
        assert c.facets == ((0, 1), (0, 1, 2), (3,))
        assert c.dimension == 2
        assert len({len(f) for f in c.facets}) != 1
        c = SimplicialComplex.from_facets([(2, 1, 0), (1, 0), (0, 1, 2), (0, 1, 1)])
        assert c.facets == ((0, 1), (0, 1, 2))

        def assert_same_homology(facets):
            # the listing and its maximal faces, the quadratic reference
            # filter, are one complex: the same homology and f-vector
            c = SimplicialComplex.from_facets(facets)
            assert c.facets == tuple(sorted({tuple(sorted(f)) for f in facets}))
            maximal = maximal_faces_quadratic(facets)
            profile = reduced_homology(c)
            reference = reduced_homology(SimplicialComplex(maximal))
            assert profile == reference
            assert profile.cells == reference.cells == face_counts(maximal)
            return c

        # duplicates, nested sub-facets and unsorted vertex order
        rng = random.Random(77)
        for _ in range(50):
            facets = [rng.sample(range(10), rng.randint(1, 5))
                      for _ in range(rng.randint(1, 30))]
            facets += [rng.sample(f, rng.randint(1, len(f)))
                       for f in rng.sample(facets, len(facets) // 2)]
            facets += rng.sample(facets, len(facets) // 3)
            rng.shuffle(facets)
            assert_same_homology(facets)
        # the g=3 sphere with every ridge of every facet, and duplicates:
        # 132 facets and their 792 ridges, so the stars of the acyclic walk
        # span many 64-bit words
        sphere = build_complex(chain3).complex.facets
        rng = random.Random(78)
        facets = [rng.sample(f, len(f)) for f in sphere]
        facets += [rng.sample(r, len(r)) for f in sphere
                   for r in combinations(f, len(f) - 1)]
        facets += rng.sample(facets, len(facets) // 2)
        rng.shuffle(facets)
        c = assert_same_homology(facets)
        assert maximal_faces_quadratic(facets) == sphere
        assert len(sphere) == 132 and len(c.facets) > 2 * 64
        assert reduced_homology(c).is_reduced_sphere(4)

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            SimplicialComplex.from_facets([])

    def test_f_vector_and_euler(self):
        cells = reduced_homology(SimplicialComplex.from_facets(OCTAHEDRON)).cells
        assert cells == (6, 12, 8)
        assert sum((-1) ** k * n for k, n in enumerate(cells)) == 2

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


def entries(dense):
    """Every entry of a list-of-lists matrix, zeros included, as the
    {(row, col): value} dict smith_normal_form takes."""
    return {(r, c): v for r, row in enumerate(dense) for c, v in enumerate(row)}


class TestSmithNormalForm:
    def test_identity(self):
        assert smith_normal_form({(0, 0): 1, (1, 1): 1, (2, 2): 1}) == (
            (1, 1, 1),
            3,
        )

    def test_multiple_of_smaller(self):
        assert smith_normal_form(
            {(0, 0): 2, (0, 1): 4, (1, 0): 4, (1, 1): 8}) == ((2,), 1)

    def test_torsion_block(self):
        divisors, rank = smith_normal_form({(0, 0): 2, (1, 1): 3})
        assert divisors == (1, 6) and rank == 2
        # pivots that do not divide each other, on and off the diagonal
        for dense, expected in [
            ([[4, 0], [0, 6]], ((2, 12), 2)),
            ([[6, 0, 0], [0, 10, 0], [0, 0, 15]], ((1, 30, 30), 3)),
            ([[2, 1], [0, 2]], ((1, 4), 2)),
        ]:
            assert smith_normal_form(entries(dense)) == expected
            assert sympy_invariants(dense) == expected[0]

    def test_leaves_its_argument_unchanged(self):
        matrix = entries([[6, 4, 0], [0, 10, 15], [3, 0, 2]])
        before = dict(matrix)
        smith_normal_form(matrix)
        assert matrix == before

    def test_zero_matrix(self):
        assert smith_normal_form({}) == ((), 0)
        assert smith_normal_form(entries([[0, 0], [0, 0]])) == ((), 0)

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
            divisors, rank = smith_normal_form(entries(m))
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
        profile = reduced_homology(c)
        assert profile.cells == (6, 15, 10)
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

    def test_skeletons_match_references(self, chain2, chain3):
        # the octahedron's 1-skeleton: 6 vertices, 12 edges, 7 cycles
        octahedron = SimplicialComplex.from_facets(OCTAHEDRON)
        assert reduced_homology(skeleton(octahedron, 0)).betti == (0, 7)
        assert_matches_references(octahedron)
        assert_matches_references(
            SimplicialComplex.from_facets(PROJECTIVE_PLANE))
        # the interval spheres; the dense oracle is affordable at g=2 only
        assert_matches_references(build_complex(chain2).complex)
        assert_matches_references(build_complex(chain3).complex, oracle=False)

    def test_boundary_squares_to_zero(self):
        c = SimplicialComplex.from_facets(OCTAHEDRON)
        faces = [faces_of(c.facets, k) for k in range(3)]
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


def acyclic_facets(facets):
    """The facets _acyclic_subcomplex takes into A, in facet order."""
    c = SimplicialComplex.from_facets(facets)
    inside, _, _ = complexes._acyclic_subcomplex(c.facets)
    return [f for f, joined in zip(c.facets, inside) if joined]


def random_complex(rng):
    """Up to 14 facets on at most 8 vertices.  Every other complex has
    facets of 1 to 5 vertices, so it need not be pure; the rest have
    triangles and a few edges, which leave holes in degrees 1 and 2."""
    n = rng.randint(1, 8)
    sizes = (1, 2, 3, 4, 5) if rng.random() < 0.5 else (2, 3, 3, 3)
    return SimplicialComplex.from_facets(
        rng.sample(range(n), min(n, rng.choice(sizes)))
        for _ in range(rng.randint(1, 14)))


class TestAcyclicSubcomplex:
    def test_lower_facet_whose_ridge_lies_in_a_larger_facet_joins(self):
        # (0, 1) lies in the tetrahedron, so R = {4} and F & A is the edge
        assert acyclic_facets([(0, 1, 2, 3), (0, 1, 4)]) == [
            (0, 1, 2, 3), (0, 1, 4)]
        # an edge whose one vertex is in A: R is the other vertex
        assert acyclic_facets([(0, 1, 2), (2, 3)]) == [(0, 1, 2), (2, 3)]

    def test_facet_meeting_a_only_at_a_vertex_stays_out(self):
        # no ridge of (2, 3, 4) lies in A, so R is empty
        c = SimplicialComplex.from_facets([(0, 1, 2), (2, 3, 4)])
        assert acyclic_facets(c.facets) == [(0, 1, 2)]
        profile = reduced_homology(c)
        assert profile.betti == (0, 0, 0) and profile.acyclic == 1
        assert profile.cells == face_counts(c.facets) == (5, 6, 2)

    def test_last_facet_of_the_tetrahedron_boundary_stays_out(self):
        # every ridge of (1, 2, 3) lies in A, so R = F and F & A = dF
        c = SimplicialComplex.from_facets(combinations(range(4), 3))
        assert acyclic_facets(c.facets) == [(0, 1, 2), (0, 1, 3), (0, 2, 3)]
        profile = reduced_homology(c)
        assert profile.betti == (0, 0, 1)
        assert profile.leftover == (0, 0, 1)
        assert profile.cells == (4, 6, 4)

    def test_facet_whose_restriction_lies_in_an_a_facet_stays_out(self):
        # R = {3} lies in (0, 3): F & A is the edge (1, 2) and the vertex 3,
        # which is disconnected, and K is a circle
        c = SimplicialComplex.from_facets([(0, 1, 2), (0, 3), (1, 2, 3)])
        assert acyclic_facets(c.facets) == [(0, 1, 2), (0, 3)]
        profile = reduced_homology(c)
        assert profile.betti == (0, 1, 0)
        assert profile == snf_homology(c.facets)

    def test_face_listed_before_its_container(self):
        # (0, 1) joins A first; (0, 1, 2) then has R = {2}, and (0, 1, 3)
        # R = {3}: A is the two triangles, and the edge adds no cell
        c = SimplicialComplex.from_facets([(0, 1), (0, 1, 2), (0, 1, 3)])
        assert acyclic_facets(c.facets) == [(0, 1), (0, 1, 2), (0, 1, 3)]
        profile = reduced_homology(c)
        assert profile.betti == (0, 0, 0) and profile.leftover == (0, 0, 0)
        assert profile.cells == face_counts(c.facets) == (4, 5, 2)

    def test_face_listed_after_its_container(self):
        # every ridge of (0, 2) lies in (0, 1, 2), so R = F and it stays
        # out with no cell; (0, 3) and (2, 3) then close a circle
        c = SimplicialComplex.from_facets([(0, 1, 2), (0, 2), (0, 3), (2, 3)])
        assert c.facets[1] == (0, 2)
        assert acyclic_facets(c.facets) == [(0, 1, 2), (0, 3)]
        profile = reduced_homology(c)
        assert profile.betti == (0, 1, 0) and profile.leftover == (0, 1, 0)
        assert profile.cells == face_counts(c.facets) == (4, 5, 1)
        assert profile == snf_homology(maximal_faces_quadratic(c.facets))

    def test_first_facet_may_be_a_lone_vertex(self):
        c = SimplicialComplex.from_facets([(0,), (1, 2), (2, 3)])
        assert acyclic_facets(c.facets) == [(0,)]
        profile = reduced_homology(c)
        assert profile.betti == (1, 0) and profile.acyclic == 1
        assert profile.cells == (4, 2)
        # a lone vertex after the first has R = F and stays out
        assert acyclic_facets([(0, 1), (2,)]) == [(0, 1)]
        assert reduced_homology(
            SimplicialComplex.from_facets([(0,), (1,)])).acyclic == 1

    @pytest.mark.parametrize("seed", range(20))
    def test_relabelled_projective_planes_keep_their_torsion(self, seed):
        # each labelling orders the facets differently, so A and the
        # relative cells differ, and the Z/2 rests on the incidence signs
        labels = random.Random(7000 + seed).sample(range(20), 6)
        c = SimplicialComplex.from_facets(
            [labels[v - 1] for v in f] for f in PROJECTIVE_PLANE)
        profile = reduced_homology(c)
        assert profile.betti == (0, 0, 0)
        assert profile.torsion == ((), (2,), ())
        assert profile.acyclic < len(c.facets)
        assert profile.cells == (6, 15, 10)

    @pytest.mark.parametrize("genus", [2, 3, 4, 5])
    def test_interval_spheres_leave_one_facet(self, genus):
        c = build_complex(chain_surface(genus)).complex
        profile = reduced_homology(c)
        assert profile.acyclic == len(c.facets) - 1
        assert profile.leftover == (0,) * (2 * genus - 2) + (1,)
        if genus <= 4:  # criterion 12 checks the cells at g=5
            assert profile.cells == face_counts(c.facets)

    @pytest.mark.parametrize("seed", range(300))
    def test_random_complexes_match_references(self, seed):
        c = random_complex(random.Random(6000 + seed))
        profile = reduced_homology(c)
        reference = snf_homology(c.facets)
        assert profile == reference
        assert profile.cells == reference.cells == face_counts(c.facets)
        assert (profile.betti, profile.torsion) == (
            reduced_betti_and_torsion(c.facets))
        # A is acyclic, and its face counts by binomials are its f-vector
        inside, _, sizes = complexes._acyclic_subcomplex(c.facets)
        a = SimplicialComplex(tuple(
            f for f, joined in zip(c.facets, inside) if joined))
        assert sum(inside) == profile.acyclic >= 1
        assert set(snf_homology(a.facets).betti) == {0}
        assert not any(snf_homology(a.facets).torsion)
        assert tuple(sizes[1:a.dimension + 2]) == face_counts(a.facets)


def padded_homology(profile, length):
    """Betti numbers and torsion, padded with zeros to the given length."""
    extra = length - len(profile.betti)
    return profile.betti + (0,) * extra, profile.torsion + ((),) * extra


def assert_collapse_keeps_homology(vertices, edges):
    """The flag complexes of the graph and of its collapsed core have equal
    homology, for the vertex order and for its reverse (the vertices are
    relabelled, so the removals happen in the other order).  Returns the
    number of edges the collapse kept."""
    full = reduced_homology(flag_from_graph(vertices, edges))
    core = collapse_dominated_edges(vertices, edges)
    flip = {v: -v for v in vertices}
    flipped = collapse_dominated_edges(
        flip.values(), [(flip[a], flip[b]) for a, b in edges])
    profiles = [full, reduced_homology(flag_from_graph(vertices, core)),
                reduced_homology(flag_from_graph(flip.values(), flipped))]
    length = max(len(p.betti) for p in profiles)
    want = padded_homology(full, length)
    for p in profiles[1:]:
        assert padded_homology(p, length) == want
    assert set(core) <= {tuple(sorted(e)) for e in edges}
    return len(core)


def random_graph(rng, n, p):
    return [(a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < p]


class TestCollapseDominatedEdges:
    @pytest.mark.parametrize("seed", range(30))
    def test_random_graphs_keep_homology(self, seed):
        rng = random.Random(3000 + seed)
        n = rng.randint(1, 11)
        edges = random_graph(rng, n, rng.random())
        assert_collapse_keeps_homology(range(n), edges)

    def test_collapses_remove_edges(self):
        rng = random.Random(31)
        kept = total = 0
        for _ in range(20):
            edges = random_graph(rng, 10, 0.6)
            kept += assert_collapse_keeps_homology(range(10), edges)
            total += len(edges)
        assert kept < total // 2
        # a complete graph is a simplex: it collapses to a tree
        assert len(collapse_dominated_edges(range(7), combinations(range(7), 2))) == 6

    @pytest.mark.parametrize("seed", range(10))
    def test_cone_is_contractible(self, seed):
        rng = random.Random(4000 + seed)
        n = rng.randint(2, 9)
        edges = random_graph(rng, n, 0.5) + [(v, n) for v in range(n)]
        profile = reduced_homology(flag_from_graph(range(n + 1), edges))
        assert set(profile.betti) == {0} and all(t == () for t in profile.torsion)
        assert_collapse_keeps_homology(range(n + 1), edges)

    def test_keeps_torsion(self):
        # the projective plane is not flag; its barycentric subdivision is,
        # and its Z/2 must survive the collapse
        faces = {s for f in PROJECTIVE_PLANE for k in (1, 2, 3)
                 for s in combinations(f, k)}
        edges = [(a, b) for a in faces for b in faces
                 if len(a) < len(b) and set(a) < set(b)]
        labels = {f: i for i, f in enumerate(sorted(faces))}
        graph = [(labels[a], labels[b]) for a, b in edges]
        core = collapse_dominated_edges(range(len(faces)), graph)
        profile = reduced_homology(flag_from_graph(range(len(faces)), core))
        assert profile.torsion[1] == (2,)
        assert_collapse_keeps_homology(range(len(faces)), graph)

    @pytest.mark.parametrize("seed", range(10))
    def test_triangle_free_graphs_keep_every_edge(self, seed):
        rng = random.Random(5000 + seed)
        n = rng.randint(4, 12)
        cycle = [(v, (v + 1) % n) for v in range(n)]
        bipartite = [(a, b) for a in range(0, n, 2) for b in range(1, n, 2)
                     if rng.random() < 0.6]
        for edges in (cycle, bipartite):
            want = {tuple(sorted(e)) for e in edges}
            assert set(collapse_dominated_edges(range(n), edges)) == want

    @pytest.mark.parametrize("genus", [3, 4])
    def test_interval_spheres_keep_every_edge(self, genus):
        # the link of an edge of a flag sphere is a sphere, never a cone
        build = build_complex(chain_surface(genus))
        vertices = range(len(build.vertices))
        assert collapse_dominated_edges(vertices, build.edges) == build.edges

    def test_rejects_an_edge_outside_the_vertices(self):
        with pytest.raises(DomainError):
            collapse_dominated_edges(range(3), [(0, 5)])


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
