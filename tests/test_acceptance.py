"""End-to-end certification suite.

Each test prints one PASS/FAIL line (visible with pytest -s) and enforces
its own wall-clock budget where one applies.  The sphere certificates are
the expensive part; everything else is arithmetic against frozen tables.
"""

import json
import time
from contextlib import contextmanager

import pytest

from diskcomplex import (
    CurveClass,
    HypothesisError,
    Side,
    bbm_vertices,
    bounds_disk_sides,
    build_complex,
    chain_surface,
    collapse_dominated_edges,
    connectivity_probe,
    cut_along,
    bookkeeping_check,
    dims,
    flag_cells,
    flag_homology,
    geometric_intersection,
    max_simplex_probe,
    pseudomanifold_check,
    reduced_homology,
    sample_gamma,
    self_intersection,
)
from diskcomplex.cli import canonical_json, run
from diskcomplex.complexes import SimplicialComplex
from oracles import (
    christoffel_word,
    face_counts,
    primitive_slopes,
    reduced_betti_and_torsion,
    torus_slope_intersection,
)
from test_words import TorusFixture


@contextmanager
def certify(num, label, budget=None):
    """Time the block and print its verdict, with any notes it appends."""
    notes = []
    t0 = time.monotonic()
    try:
        yield notes
    except BaseException:
        print("[%2d] %s: FAIL" % (num, label))
        raise
    dt = time.monotonic() - t0
    print("[%2d] %s: PASS (%s)" % (num, label, "; ".join(["%.2fs" % dt] + notes)))
    if budget is not None:
        assert dt < budget, "budget %.0fs exceeded: %.2fs" % (budget, dt)


def sphere_profile(g):
    surface = chain_surface(g)
    build = build_complex(surface)
    profile = reduced_homology(build.complex)
    return surface, build, profile


def certificate_path(profile, complex_):
    """How the homology was proved: an acyclic subcomplex grown over the
    facets, pair removals on the cells outside it, then the Smith form
    on whatever cells they left."""
    left = sum(profile.leftover)
    return "acyclic subcomplex %d of %d facets, coreduction, %d cell%s left" % (
        profile.acyclic, len(complex_.facets), left, "" if left == 1 else "s")


def test_criterion_01_genus_two_sphere():
    with certify(1, "genus-2 certificate", budget=1.0) as notes:
        surface, build, profile = sphere_profile(2)
        notes.append(certificate_path(profile, build.complex))
        assert len(build.vertices) == 9
        assert all(bounds_disk_sides(surface, v.curve) for v in build.vertices)
        cx = build.complex
        assert len({len(f) for f in cx.facets}) == 1 and cx.dimension == 2
        assert profile.cells == (9, 21, 14)
        assert sum((-1) ** k * n for k, n in enumerate(profile.cells)) == 2
        assert pseudomanifold_check(cx, 2).ok
        assert profile.betti == (0, 0, 1)
        assert all(t == () for t in profile.torsion)


def test_criterion_02_genus_three_sphere():
    with certify(2, "genus-3 certificate", budget=30.0) as notes:
        _, build, profile = sphere_profile(3)
        notes.append(certificate_path(profile, build.complex))
        assert len(build.vertices) == 20
        assert profile.cells == (20, 120, 300, 330, 132)
        assert profile.betti == (0, 0, 0, 0, 1)
        assert all(t == () for t in profile.torsion)


def test_criterion_03_genus_four_sphere():
    with certify(3, "genus-4 certificate", budget=600.0) as notes:
        _, build, profile = sphere_profile(4)
        notes.append(certificate_path(profile, build.complex))
        assert len(build.vertices) == 35
        assert profile.betti == (0, 0, 0, 0, 0, 0, 1)
        assert all(t == () for t in profile.torsion)
        assert pseudomanifold_check(build.complex, 6).ok


def test_criterion_04_every_interval_has_its_parity_side():
    with certify(4, "interval side parity, g=2..4"):
        for g in (2, 3, 4):
            surface = chain_surface(g)
            vertices, _ = bbm_vertices(surface)
            assert len(vertices) == g * (2 * g + 1) - 1
            for v in vertices:
                assert v.interval.predicted_side in v.sides, v.interval
                assert v.sides == bounds_disk_sides(surface, v.curve)


def test_criterion_05_chain_intersection_matrix():
    with certify(5, "chain matrix, g=2..4"):
        for g in (2, 3, 4):
            surface = chain_surface(g)
            cores = [surface.core_class(i) for i in range(1, 2 * g + 1)]
            for a, u in enumerate(cores, start=1):
                assert self_intersection(surface, u) == 0
                for b, v in enumerate(cores, start=1):
                    if a >= b:
                        continue
                    want = 1 if abs(a - b) == 1 else 0
                    assert geometric_intersection(surface, u, v) == want


def test_criterion_06_torus_determinant_oracle():
    with certify(6, "torus slopes exhaustive to 3"):
        torus = TorusFixture()
        slopes = primitive_slopes(3)
        for i, pq in enumerate(slopes):
            u = CurveClass.from_letters(christoffel_word(*pq))
            for rs in slopes[i + 1:]:
                v = CurveClass.from_letters(christoffel_word(*rs))
                got = geometric_intersection(torus, u, v)
                assert got == torus_slope_intersection(pq, rs), (pq, rs)


def test_criterion_07_homology_against_brute_force():
    with certify(7, "homology vs rational ranks"):
        hollow = SimplicialComplex.from_facets([(0, 1), (1, 2), (0, 2)])
        assert reduced_homology(hollow).betti == (0, 1)

        octa = SimplicialComplex.from_facets([
            (0, 2, 4), (0, 2, 5), (0, 3, 4), (0, 3, 5),
            (1, 2, 4), (1, 2, 5), (1, 3, 4), (1, 3, 5),
        ])
        assert reduced_homology(octa).betti == (0, 0, 1)

        import random

        from diskcomplex import flag_from_graph

        rng = random.Random(20260816)
        for _ in range(20):
            n = rng.randint(4, 8)
            edges = [(a, b) for a in range(n) for b in range(a + 1, n)
                     if rng.random() < 0.55]
            cx = flag_from_graph(range(n), edges)
            profile = reduced_homology(cx)
            betti, torsion = reduced_betti_and_torsion(cx.facets)
            assert profile.betti == betti
            assert profile.torsion == torsion


def test_criterion_08_split_tables_and_identities():
    with certify(8, "split bookkeeping"):
        surface = chain_surface(2)
        table = {
            ("z1",): ((1, 3),),
            ("z1", "z3"): ((0, 5),),
            ("x:1-2",): ((1, 2), (1, 1)),
        }
        for specs, components in table.items():
            report = cut_along(surface, list(specs))
            assert report.components == components
            assert bookkeeping_check(report)
        # the identities hold on every supported cut, not just the table
        for g in (2, 3):
            S = chain_surface(g)
            for i in range(1, 2 * g + 1, 2):
                assert bookkeeping_check(cut_along(S, ["z%d" % i]))
            for j in range(1, 2 * g):
                assert bookkeeping_check(
                    cut_along(S, ["x:%d-%d" % (j, j + 1)]))


def test_criterion_09_dimension_and_connectivity_table():
    with certify(9, "dims table"):
        table = {
            (2, 0): (2, 2), (3, 0): (4, 4), (2, 1): (2, 2),
            (0, 4): (0, 0), (0, 5): (1, 1), (1, 2): (1, 0),
        }
        for gb, want in table.items():
            d = dims(*gb)
            assert (d.dimension, d.connectivity) == want
        for gb in ((1, 0), (0, 3)):
            with pytest.raises(HypothesisError):
                dims(*gb)


def test_criterion_10_sampler_vertices_and_pants_probe():
    with certify(10, "sampler probe reaches 3g-4+b"):
        surface = chain_surface(2)
        s1 = sample_gamma(surface, 1)
        assert [str(c) for c in s1.vertices] == ["g1", "g2", "g3", "g4"]
        assert s1.sides == (
            frozenset({Side.O}), frozenset({Side.E}),
            frozenset({Side.O}), frozenset({Side.E}))

        # a curated disjoint quadruple fills a top simplex: two odd cores,
        # the odd frontier between them, and the even frontier around them
        pants = [CurveClass.from_letters(w)
                 for w in ((1,), (3,), (1, -3), (1, 2, -3, -2))]
        probed = max_simplex_probe(sample_gamma(surface, 1, include=pants))
        assert probed == 3 == 3 * 2 - 4 + 1

        # swapping the interior curves for the two even frontiers loses the
        # simplex: those cross each other (4) and the second core (2)
        x12 = CurveClass.from_letters((1, 2, -1, -2))
        x34 = CurveClass.from_letters((3, 4, -3, -4))
        assert geometric_intersection(surface, pants[1], x12) == 2
        assert geometric_intersection(surface, x12, x34) == 4
        crossing = [pants[0], pants[1], x12, x34]
        s_cross = sample_gamma(surface, 1, include=crossing)
        assert max_simplex_probe(s_cross) == 2

        # the probe never exceeds the pants bound on any run
        for budget in (1, 2, 3, 4):
            assert max_simplex_probe(sample_gamma(surface, budget)) <= 3
        assert max_simplex_probe(
            sample_gamma(surface, 4, include=pants)) == 3


def test_criterion_11_payloads_are_byte_identical(tmp_path, capsys):
    with certify(11, "payload determinism, g=2 and g=3"):
        for g in (2, 3):
            paths = [tmp_path / ("run%d_g%d.json" % (k, g)) for k in (0, 1)]
            for p in paths:
                assert run(["bbm", "build", "-g", str(g),
                            "--out", str(p)]) == 0
            capsys.readouterr()
            docs = [json.loads(p.read_text()) for p in paths]
            blobs = [canonical_json(d["payload"]).encode() for d in docs]
            assert blobs[0] == blobs[1]
            assert (docs[0]["manifest"]["payload_sha256"]
                    == docs[1]["manifest"]["payload_sha256"])


def test_criterion_12_genus_five_sphere():
    with certify(12, "genus-5 certificate", budget=60.0) as notes:
        _, build, profile = sphere_profile(5)
        notes.append(certificate_path(profile, build.complex))
        assert len(build.vertices) == 54
        cx = build.complex
        # 16,796 facets: Catalan(10), as for the associahedron of the 12-gon
        assert face_counts(cx.facets) == profile.cells == (
            54, 936, 7644, 34398, 91728, 148512, 143208, 75582, 16796)
        assert profile.betti == (0, 0, 0, 0, 0, 0, 0, 0, 1)
        assert all(t == () for t in profile.torsion)
        assert pseudomanifold_check(cx, 8).ok


def test_criterion_13_genus_four_sample():
    with certify(13, "genus-4 sample to length 4", budget=30.0) as notes:
        surface = chain_surface(4)
        s = sample_gamma(surface, 4)
        # every freely reduced word of length <= 4 over 8 generators
        assert s.n_enumerated == sum(16 * 15 ** (k - 1) for k in range(1, 5))
        assert (len(s.vertices), len(s.edges)) == (109, 1391)
        assert max_simplex_probe(s) == 8 <= 3 * 4 - 3
        probe = connectivity_probe(s)
        assert (probe.betti0, probe.betti1) == (0, 0)
        notes.append("%d classes kept of %d words" % (len(s.vertices), s.n_enumerated))


def test_criterion_14_sampler_g3_L6_and_g4_L5():
    with certify(14, "sampler past the default sizes", budget=30.0) as notes:
        s36 = sample_gamma(chain_surface(3), 6, cap=10**7)
        assert (len(s36.vertices), len(s36.edges)) == (275, 2683)
        s45 = sample_gamma(chain_surface(4), 5)
        assert (len(s45.vertices), len(s45.edges)) == (315, 5182)
        assert len(s45.complex.facets) == 6660
        kept = []
        for s in (s36, s45):
            probe = connectivity_probe(s)
            assert (probe.betti0, probe.betti1) == (0, 0)
            core = collapse_dominated_edges(range(len(s.vertices)), s.edges)
            kept.append("%d of %d" % (len(core), len(s.edges)))
        notes.append("probes on the edge-collapsed cores, "
                     "%s edges kept at (3,6), %s at (4,5)" % tuple(kept))
        # the full complex, with no collapse
        profile = reduced_homology(s45.complex)
        assert profile.betti == (0, 0, 2, 214, 2, 0, 0, 0, 0)
        assert all(t == () for t in profile.torsion)
        # the path diskcx homology takes on their documents: the f-vector
        # from the clique walk, the homology from the core
        for s, full in ((s36, reduced_homology(s36.complex)), (s45, profile)):
            cells = flag_cells(s.complex, s.edges)
            assert cells == full.cells
            core = flag_homology(range(len(s.vertices)), s.edges, len(cells) - 1)
            assert (core.betti, core.torsion) == (full.betti, full.torsion)
        notes.append("core path agrees with the face path at (3,6) and (4,5)")
