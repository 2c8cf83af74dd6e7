"""Bounded enumeration of disk-bounding classes and simplex probes."""

import collections
import hashlib
import itertools
import random
import sys
import time

import pytest

from diskcomplex import (
    BudgetError,
    CurveClass,
    CurveError,
    DomainError,
    Side,
    bbm_vertices,
    bounds_disk_sides,
    chain_surface,
    connectivity_probe,
    flag_from_graph,
    flag_homology,
    geometric_intersection,
    max_simplex_probe,
    reduced_homology,
    sample_gamma,
)
import diskcomplex.handles as handles
import diskcomplex.sampler as sampler
import diskcomplex.words as words
from diskcomplex.ribbon import ChainSurface
from diskcomplex.words import (
    _linked_configurations, _period, _tripod_masks, disjoint_pairs)
from diskcomplex.handles import disk_vertices
from oracles import (
    crossings_by_rays, dying_classes, reduced_words, self_linked_shifts)
from test_complexes import (
    PROJECTIVE_PLANE, assert_collapse_keeps_homology, random_graph)

# (genus, budget) pairs small enough to enumerate every reduced word
BRUTE = [(2, L) for L in range(1, 6)] + [(3, L) for L in range(1, 5)] + [
    (4, L) for L in range(1, 4)]


def classes(*words):
    return [CurveClass.from_letters(w) for w in words]


class TestSampleGamma:
    def test_length_one_is_the_four_cores(self, chain2):
        s = sample_gamma(chain2, 1)
        assert [str(c) for c in s.vertices] == ["g1", "g2", "g3", "g4"]
        assert s.sides == (
            frozenset({Side.O}),
            frozenset({Side.E}),
            frozenset({Side.O}),
            frozenset({Side.E}),
        )
        assert s.edges == ((0, 2), (0, 3), (1, 3))

    def test_length_two_adds_the_odd_frontiers(self, chain2):
        s = sample_gamma(chain2, 2)
        assert [str(c) for c in s.vertices] == [
            "g1", "g2", "g3", "g4", "g1 -g3", "g2 -g4"]

    def test_monotone_in_budget(self, chain2):
        prev = set()
        for budget in (1, 2, 3, 4):
            cur = set(sample_gamma(chain2, budget).vertices)
            assert prev <= cur
            prev = cur

    def test_every_vertex_bounds_a_disk(self, chain2):
        s = sample_gamma(chain2, 4)
        for c in s.vertices:
            assert bounds_disk_sides(chain2, c)

    def test_length_four_contains_the_even_frontier(self, chain2):
        s = sample_gamma(chain2, 4)
        x12 = CurveClass.from_letters((1, 2, -1, -2))
        assert x12 in s.vertices
        assert s.sides[s.vertices.index(x12)] == frozenset({Side.O, Side.E})

    def test_interval_vertices_of_small_length_are_sampled(self, chain2):
        from diskcomplex import bbm_vertices

        verts, _ = bbm_vertices(chain2)
        sampled = set(sample_gamma(chain2, 4).vertices)
        for v in verts:
            assert v.curve in sampled

    def test_boundary_class_never_sampled(self, chain2):
        # the boundary is peripheral, not a disk vertex on either side
        assert not bounds_disk_sides(chain2, chain2.boundary_class)
        assert chain2.boundary_class not in sample_gamma(chain2, 4).vertices

    def test_edges_are_disjoint_pairs(self, chain2):
        s = sample_gamma(chain2, 3)
        for a, b in s.edges:
            assert geometric_intersection(
                chain2, s.vertices[a], s.vertices[b]) == 0

    def test_include_is_deduplicated(self, chain2):
        s = sample_gamma(chain2, 1, include=classes((1,)))
        assert len(s.vertices) == 4

    def test_include_rejects_non_disk_classes(self, chain2):
        with pytest.raises(CurveError, match="bounds no disk"):
            sample_gamma(chain2, 1, include=classes((1, 2)))

    @pytest.mark.parametrize("budget", [0, -1, 2.0, "3", True, False])
    def test_budget_must_be_a_positive_int(self, chain2, budget):
        # a bool is an int to isinstance, and True would sample L = 1
        with pytest.raises(DomainError, match="positive word length"):
            sample_gamma(chain2, budget)

    def test_cap_overflow_raises(self, chain2):
        with pytest.raises(BudgetError, match="cap of 500"):
            sample_gamma(chain2, 12, cap=500)

    def test_enumeration_count_reported(self, chain2):
        # eight reduced words of length one over four generators
        assert sample_gamma(chain2, 1).n_enumerated == 8


class TestClassEnumeration:
    @pytest.mark.parametrize("genus, budget", BRUTE)
    def test_one_canonical_word_per_class(self, monkeypatch, genus, budget):
        # the gate sees a class that dies on a side at most once, by its
        # canonical word, and skips it only when its shifts 1..n-1 are
        # linked with each other (the search cut it at the first prefix
        # where they are, the class itself perhaps); the search keeps
        # exactly the classes that are primitive, not the boundary word and
        # free of self-links, each once, with the sides it dies on
        surface = chain_surface(genus)
        order = surface.rose_order
        gated = []
        gate = handles._is_disk_word

        def spy(surface, letters, masks):
            gated.append(letters)
            return gate(surface, letters, masks)
        monkeypatch.setattr(handles, "_is_disk_word", spy)
        found = disk_vertices(surface, budget)
        monkeypatch.undo()
        dying = dying_classes(2 * genus, budget)
        assert len(gated) == len(set(gated))
        assert set(gated) <= set(dying)
        assert all(self_linked_shifts(order, w)
                   for w in set(dying) - set(gated))
        assert len(found) == len({c for c, _ in found})
        want = {
            w: sides for w, sides in dying.items()
            if w != surface.boundary_class.letters
            and all(w != w[:d] * (len(w) // d)
                    for d in range(1, len(w)) if len(w) % d == 0)
            and crossings_by_rays(order, w, w) == 0
        }
        assert {c.letters: {s.value for s in sides}
                for c, sides in found} == want
        # bounds_disk_sides keeps the same classes, with the same sides
        kept = {CurveClass(w): sides for w in dying
                if (sides := bounds_disk_sides(surface, CurveClass(w)))}
        assert dict(found) == kept

    @pytest.mark.parametrize("genus, budget", [(2, 6), (3, 5)])
    def test_gate_gets_the_masks_it_would_compute(self, monkeypatch, genus,
                                                  budget):
        # the search hands the gate its carried tripod masks with shift 0
        # added, and p == n for primitivity: what is_simple_word computes
        # from the letters when no masks are given
        surface = chain_surface(genus)
        order = surface.rose_order
        carried = []
        gate = handles._is_disk_word

        def spy(surface, letters, masks):
            carried.append((letters, masks))
            return gate(surface, letters, masks)
        monkeypatch.setattr(handles, "_is_disk_word", spy)
        disk_vertices(surface, budget)
        assert all(
            masks == (*_tripod_masks(order, w), _period(w) == len(w))
            for w, masks in carried)
        assert {masks[2] for _, masks in carried} == {True, False}

    def test_pruned_search_size(self, monkeypatch):
        # 2,047 of the 18,229 classes of length <= 5 at genus 3 die on a
        # side; the gate runs once on each of the 883 whose inner shifts
        # do not self-link
        calls = collections.Counter()
        gate = handles._is_disk_word

        def spy(surface, letters, masks):
            calls[letters] += 1
            return gate(surface, letters, masks)
        monkeypatch.setattr(handles, "_is_disk_word", spy)
        frames = []

        def entering(frame, event, arg):
            if (event == "call" and frame.f_code.co_name == "extend"
                    and frame.f_globals["__name__"] == handles.__name__):
                frames.append(None)
        sys.setprofile(entering)
        try:
            found = disk_vertices(chain_surface(3), 5)
        finally:
            sys.setprofile(None)
        assert sum(calls.values()) == len(calls) == 883
        assert len(found) == 105
        # one frame per prefix placed: a last letter that leaves no
        # necklace, or one whose word is not cyclically reduced, is not
        # placed (3,826 frames when it was)
        assert len(frames) == 3361

    @pytest.mark.parametrize("genus, budget, count, sha256", [
        (2, 8, 122,
         "200eacd1e5b8035b28b57ebd934d2d2cfa654a620a11616d966d512bc51eefcb"),
        (3, 6, 275,
         "04b95911dad1a6bfba022ebcd9aeee023c88e139554e4d8731d519aa0d1dad3c"),
        (4, 5, 315,
         "e84702bda689300f5b594b25c172b05cc077bbecf94b91ac0debcf5635ce9607"),
        (2, 9, 196,
         "787a2a889fe4e867401f9bbd0562570f4d079940d21d08843d7fb4d29151cc56"),
    ])
    def test_disk_vertices_past_the_brute_force_sizes(
            self, genus, budget, count, sha256):
        # the (class, sides) list, in order, as the search gave it before
        # it dropped self-linked prefixes: one line per class, its letters
        # and then its sides
        found = disk_vertices(chain_surface(genus), budget)
        text = "\n".join(
            " ".join(map(str, c.letters)) + " "
            + "".join(sorted(s.value for s in sides)) for c, sides in found)
        assert len(found) == count
        assert hashlib.sha256(text.encode()).hexdigest() == sha256

    def test_past_the_brute_force_sizes(self):
        s = sample_gamma(chain_surface(2), 7, cap=2 * 10**6)
        assert len(s.vertices) == 65
        assert len(s.edges) == 247
        assert len(s.complex.facets) == 114

    @pytest.mark.parametrize("genus, budget, cap", [(2, 7, 2 * 10**6), (3, 5, 10**6)])
    def test_search_sides_are_the_disk_test_sides(self, genus, budget, cap):
        surface = chain_surface(genus)
        s = sample_gamma(surface, budget, cap=cap)
        assert s.sides == tuple(bounds_disk_sides(surface, c) for c in s.vertices)

    @pytest.mark.parametrize("genus, budget", BRUTE)
    def test_closed_form_count_is_the_word_count(self, genus, budget):
        n = sum(1 for _ in reduced_words(2 * genus, budget))
        surface = chain_surface(genus)
        with pytest.raises(BudgetError, match=f"cap of {n - 1} "):
            sample_gamma(surface, budget, cap=n - 1)
        assert sample_gamma(surface, budget, cap=n).n_enumerated == n

    def test_cap_is_checked_before_enumerating(self, chain2):
        t0 = time.monotonic()
        with pytest.raises(BudgetError, match="cap of 1000000 "):
            sample_gamma(chain2, 30)
        assert time.monotonic() - t0 < 1.0

    def test_cap_loop_stops_at_the_first_count_past_the_cap(self, chain2):
        # a closed-form count would first build 8 * 7^(10^9 - 1), a power
        # with about 10^9 digits
        t0 = time.monotonic()
        with pytest.raises(BudgetError, match="cap of 1000000 "):
            sample_gamma(chain2, 10**9)
        assert time.monotonic() - t0 < 1.0

    def test_search_reaches_its_length_bound_and_no_further(
            self, monkeypatch, chain2):
        # g1, g1^2, ... are the first classes the search gates, one frame
        # deeper each, so a gate that stops at the first other word or at
        # g1^MAX_CLASS_LENGTH shows how deep the recursion gets.  The search
        # enters one frame of its recursion per letter it places, one
        # between gates on the descent, so a search that stops gating stops
        # within bound letters.  (g1, g1^-1) is both (a, back) and (b, c)
        # at every shift of g1^k, and the link table never marks a shift
        # against itself, so the self-link prune never cuts the descent
        bound = handles.MAX_CLASS_LENGTH
        gate = handles._is_disk_word
        order = chain2.rose_order
        i = words.shift_id(len(order.letters), 0, 1)
        assert not words.link_table(order)[i] >> i & 1
        ungated = []

        class Reached(Exception):
            pass

        def spy(surface, letters, masks):
            if len(letters) == bound or letters != (1,) * len(letters):
                raise Reached(letters)
            ungated.clear()
            return gate(surface, letters, masks)

        def counting(frame, event, arg):
            if (event == "call" and frame.f_code.co_name == "extend"
                    and frame.f_globals["__name__"] == handles.__name__):
                ungated.append(None)
                if len(ungated) > bound:
                    raise Reached(len(ungated))
        monkeypatch.setattr(handles, "_is_disk_word", spy)
        sys.setprofile(counting)
        try:
            with pytest.raises(Reached) as reached:
                disk_vertices(chain2, bound)
        finally:
            sys.setprofile(None)
        ungated.clear()
        assert reached.value.args[0] == (1,) * bound
        with pytest.raises(BudgetError, match=f"at most {bound} letters"):
            disk_vertices(chain2, bound + 1)


class TestOneDecisionPerClass:
    """sample_gamma takes each class's sides from the class search: it runs
    no side test of its own, and of the classes the search yields it builds
    a CurveClass, and coerces it in disjoint_pairs, only for a vertex."""

    def test_no_second_side_test(self, monkeypatch):
        calls = collections.Counter()

        def spy(owner, name):
            fn = getattr(owner, name)

            def counting(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            monkeypatch.setattr(owner, name, counting)

        spy(handles, "kill_word")
        spy(handles, "bounds_disk_sides")
        spy(sampler, "bounds_disk_sides")
        coerce = CurveClass.coerce.__func__

        def counting_coerce(cls, *args, **kwargs):
            calls["coerce"] += 1
            return coerce(cls, *args, **kwargs)
        monkeypatch.setattr(CurveClass, "coerce", classmethod(counting_coerce))
        s = sample_gamma(chain_surface(3), 5)
        assert calls["kill_word"] == calls["bounds_disk_sides"] == 0
        assert calls["coerce"] <= len(s.vertices)

    @pytest.mark.parametrize("include", [
        (), ((1, 2, 4, -1, 3, -4, -3, -2),)], ids=["plain", "include"])
    def test_a_class_object_only_for_each_vertex(self, monkeypatch, include):
        # the gate reads the search's canonical letters, so of the 2,047
        # classes that die on a side only the 105 disk vertices become
        # CurveClass objects, each canonicalised once: by the search, or by
        # from_letters for an included class, and not again when built
        surface = chain_surface(3)
        built, checked = [], []
        post_init = CurveClass.__post_init__
        from_canonical = CurveClass.from_canonical.__func__

        def counting(self):
            checked.append(self.letters)
            post_init(self)

        def building(cls, letters):
            built.append(letters)
            return from_canonical(cls, letters)
        monkeypatch.setattr(CurveClass, "__post_init__", counting)
        monkeypatch.setattr(CurveClass, "from_canonical",
                            classmethod(building))
        s = sample_gamma(surface, 5, include=include)
        monkeypatch.undo()
        assert len(s.vertices) == 105 + len(include)
        assert sorted(built) == sorted(c.letters for c in s.vertices)
        assert checked == []


class TestEdgesAgainstTheFullCount:
    """disjoint_pairs stops at the first linked configuration of two
    roots; its edges are the pairs whose full intersection count is 0."""

    @pytest.mark.parametrize("genus, budget", [(2, 5), (3, 4)])
    def test_every_sampled_pair(self, genus, budget):
        surface = chain_surface(genus)
        verts = sample_gamma(surface, budget).vertices
        edges = disjoint_pairs(surface, verts)
        pairs = [(a, b) for a in range(len(verts)) for b in range(a + 1, len(verts))]
        want = {
            (a, b) for a, b in pairs
            if geometric_intersection(surface, verts[a], verts[b]) == 0
        }
        assert set(edges) == want
        assert 0 < len(want) < len(pairs)

    def test_distinct_powers_of_one_root(self, chain2):
        # g1 g3 g2 has self-intersection 2, so it crosses its square 8 times
        # while g1 misses g1 g1
        family = classes((1,), (1, 1), (1, 3, 2), (1, 3, 2) * 2, (2,), (1, 2, -1, -2))
        edges = disjoint_pairs(chain2, family)
        want = {
            (a, b) for a in range(len(family)) for b in range(a + 1, len(family))
            if geometric_intersection(chain2, family[a], family[b]) == 0
        }
        assert set(edges) == want
        assert (0, 1) in want and (2, 3) not in want


class TestAlgebraicPrefilter:
    """disjoint_pairs has no algebraic prefilter: it decides a pair by the
    two steps of is_simple_word.  The pair's shared-letter configurations
    are read exactly when its tripod masks do not meet, and every pair it
    does not read has a linked base configuration, so it crosses.  The
    homology pairing is never computed."""

    def split_pairs(self, monkeypatch, surface, classes):
        """(scanned, skipped) pairs of disjoint_pairs on the classes."""
        scanned = set()
        scan = words._shared_configurations

        def spy(order, u, v, tables=None):
            scanned.add((u, v))
            return scan(order, u, v, tables)

        def pairing(self):
            raise AssertionError("the edge test reads the homology pairing")

        monkeypatch.setattr(words, "_shared_configurations", spy)
        monkeypatch.setattr(ChainSurface, "homological_pairing", pairing)
        disjoint_pairs(surface, classes)
        monkeypatch.undo()
        # sampled and interval classes are simple, so each is its own root
        pairs = [(u, v) for a, u in enumerate(classes) for v in classes[a + 1:]]
        order = surface.rose_order
        masks = {c: _tripod_masks(order, c.letters) for c in classes}
        want = {(u.letters, v.letters) for u, v in pairs
                if not masks[u][0] & masks[v][1]}
        assert scanned == want
        return ([(u, v) for u, v in pairs if (u.letters, v.letters) in scanned],
                [(u, v) for u, v in pairs if (u.letters, v.letters) not in scanned])

    def assert_each_crosses(self, surface, skipped):
        """Each skipped pair has a linked base configuration, and crosses."""
        order = surface.rose_order
        for u, v in skipped:
            x, y = u.letters, v.letters
            assert any(x[s] not in (y[j], -y[j - 1])
                       for s, j in _linked_configurations(order, x, y))
            assert geometric_intersection(surface, u, v) > 0
            assert crossings_by_rays(order, x, y) > 0

    @pytest.mark.parametrize("genus, budget", [(2, 5), (3, 4)])
    def test_sampled_pairs(self, monkeypatch, genus, budget):
        surface = chain_surface(genus)
        _, skipped = self.split_pairs(
            monkeypatch, surface, sample_gamma(surface, budget).vertices)
        assert len(skipped) > 100
        self.assert_each_crosses(surface, skipped)

    @pytest.mark.parametrize("genus", [2, 3, 4, 5, 6])
    def test_interval_pairs(self, monkeypatch, genus):
        surface = chain_surface(genus)
        curves = [v.curve for v in bbm_vertices(surface)[0]]
        scanned, skipped = self.split_pairs(monkeypatch, surface, curves)
        assert skipped
        self.assert_each_crosses(surface, skipped)
        # the masks decide every crossing pair of the interval classes, so
        # the scan reads only the edges
        assert all(geometric_intersection(surface, u, v) == 0
                   for u, v in scanned)


class TestMaxSimplexProbe:
    def test_cores_alone_reach_dimension_one(self, chain2):
        assert max_simplex_probe(sample_gamma(chain2, 1)) == 1

    def test_budget_four_reaches_the_pants_bound(self, chain2):
        # 3g - 4 + b = 3 on the holed genus two surface
        assert max_simplex_probe(sample_gamma(chain2, 4)) == 3

    def test_disjoint_quadruple_probes_to_three(self, chain2):
        pants = classes((1,), (3,), (1, -3), (1, 2, -3, -2))
        s = sample_gamma(chain2, 1, include=pants)
        assert max_simplex_probe(s) == 3

    def test_crossing_quadruple_stays_at_two(self, chain2):
        # the even frontiers cross each other and the odd cores
        family = classes((1,), (3,), (1, 2, -1, -2), (3, 4, -3, -4))
        x12, x34 = family[2], family[3]
        assert geometric_intersection(chain2, family[1], x12) == 2
        assert geometric_intersection(chain2, x12, x34) == 4
        s = sample_gamma(chain2, 1, include=family)
        assert max_simplex_probe(s) == 2

    def test_probe_never_exceeds_pants_dimension(self, chain2):
        for budget in (1, 2, 3, 4):
            assert max_simplex_probe(sample_gamma(chain2, budget)) <= 3


class TestConnectivityProbe:
    def test_connected_sample_reports_zero_betti(self, chain2):
        probe = connectivity_probe(sample_gamma(chain2, 4))
        assert probe.betti0 == 0
        assert probe.betti1 == 0

    def test_probe_is_never_conclusive(self, chain2):
        probe = connectivity_probe(sample_gamma(chain2, 2))
        assert not probe.conclusive
        assert "sample" in probe.note


class TestCollapsedProbe:
    """connectivity_probe reads its Betti numbers off the flag complex of
    the graph left by collapse_dominated_edges."""

    @pytest.mark.parametrize("genus, budget", BRUTE)
    def test_core_has_the_sample_homology(self, genus, budget):
        # in the vertex order and in its reverse
        s = sample_gamma(chain_surface(genus), budget)
        assert_collapse_keeps_homology(range(len(s.vertices)), s.edges)

    @pytest.mark.parametrize("genus, budget, cap", [
        (2, 6, 10**6), (3, 5, 10**6), (3, 6, 10**7)])
    def test_probe_reads_the_full_homology(self, genus, budget, cap):
        s = sample_gamma(chain_surface(genus), budget, cap=cap)
        probe = connectivity_probe(s)
        full = reduced_homology(s.complex)
        assert (probe.betti0, probe.betti1) == full.betti[:2]
        assert full.torsion[:2] == ((), ())


class TestFlagHomology:
    """flag_homology reads the homology of a flag complex off its
    dominated-edge core: the same Betti numbers and torsion as the face
    path of reduced_homology, padded to the flag complex's dimension."""

    @pytest.mark.parametrize("seed", range(20))
    def test_random_graphs(self, seed):
        rng = random.Random(8000 + seed)
        n = rng.randint(1, 11)
        edges = random_graph(rng, n, rng.random())
        full = reduced_homology(flag_from_graph(range(n), edges))
        core = flag_homology(range(n), edges, len(full.betti) - 1)
        assert (core.betti, core.torsion) == (full.betti, full.torsion)
        assert len(core.leftover) == len(core.cells) == len(full.betti)

    def test_keeps_the_torsion_of_the_projective_plane(self):
        # the barycentric subdivision of the 6-vertex projective plane is
        # a flag complex with H_1 = Z/2
        faces = sorted({s for f in PROJECTIVE_PLANE for k in (1, 2, 3)
                        for s in itertools.combinations(f, k)})
        label = {f: i for i, f in enumerate(faces)}
        edges = [(label[a], label[b]) for a in faces for b in faces
                 if len(a) < len(b) and set(a) < set(b)]
        full = reduced_homology(flag_from_graph(range(len(faces)), edges))
        core = flag_homology(range(len(faces)), edges, 2)
        assert core.torsion == full.torsion == ((), (2,), ())
        assert core.betti == full.betti == (0, 0, 0)

    def test_the_probe_reads_it(self, monkeypatch):
        calls = []

        def spy(*args):
            calls.append(args)
            return flag_homology(*args)
        monkeypatch.setattr(sampler, "flag_homology", spy)
        s = sample_gamma(chain_surface(3), 3)
        probe = connectivity_probe(s)
        assert len(calls) == 1
        profile = flag_homology(*calls[0])
        assert (probe.betti0, probe.betti1) == profile.betti[:2]
        assert len(profile.betti) == s.complex.dimension + 1
