"""Ribbon graph mechanics and the chain surface model."""

import time

import pytest

from diskcomplex import (
    BudgetError,
    CurveClass,
    DomainError,
    HypothesisError,
    RibbonGraph,
    chain_surface,
)


def torus_rose():
    # one vertex, two loops, alternating: the one holed torus
    return RibbonGraph(rot=((1, 3, 2, 4),), rev=((1, 2), (3, 4)))


class TestRibbonGraph:
    def test_torus_rose_invariants(self):
        g = torus_rose()
        assert g.n_vertices == 1 and g.n_edges == 2
        assert g.euler_characteristic == -1
        assert g.n_boundaries == 1
        assert g.genus == 1

    def test_boundary_walk_of_torus_rose(self):
        # face permutation: 1 -> next(2) = 4 -> next(3) = 2 -> next(1) = 3
        (walk,) = torus_rose().boundary_walks()
        assert walk == (1, 4, 2, 3)

    def test_two_loops_same_side_give_genus_zero(self):
        # without alternation the two handles become trivial
        g = RibbonGraph(rot=((1, 2, 3, 4),), rev=((1, 2), (3, 4)))
        assert g.genus == 0
        assert g.n_boundaries == 3

    def test_involution_validation(self):
        with pytest.raises(DomainError):
            RibbonGraph(rot=((1, 2),), rev=((1, 1),))
        with pytest.raises(DomainError):
            RibbonGraph(rot=((1, 2, 3),), rev=((1, 2),))

    def test_subgraph_requires_rev_closure(self):
        g = torus_rose()
        with pytest.raises(DomainError):
            g.subgraph({1})
        sub = g.subgraph({1, 2})
        assert sub.n_edges == 1 and sub.n_vertices == 1

    def test_contraction_merges_vertices(self):
        # two vertices, two parallel joining edges, a loop at each end;
        # contracting an edge drops one vertex and one edge, fixing chi
        g = RibbonGraph(
            rot=((1, 3, 2, 5), (6, 4, 7, 8)),
            rev=((1, 2), (3, 4), (5, 6), (7, 8)),
        )
        c = g.with_edge_contracted(3)
        assert c.n_vertices == 1 and c.n_edges == 3
        assert c.euler_characteristic == g.euler_characteristic

    def test_loop_contraction_rejected(self):
        with pytest.raises(DomainError):
            torus_rose().with_edge_contracted(1)

    def test_components_split(self):
        g = RibbonGraph(
            rot=((1, 2), (3, 4)),
            rev=((1, 2), (3, 4)),
        )
        comps = g.components()
        assert len(comps) == 2
        assert all(c.n_edges == 1 for c in comps)


class TestChainSurface:
    @pytest.mark.parametrize("genus", [200, 10**6])
    def test_genus_past_the_link_table_limit_raises_at_once(self, genus):
        # g = 200 would need a 51 GB link table in its CyclicOrder
        t0 = time.monotonic()
        with pytest.raises(BudgetError, match="link table"):
            chain_surface(genus)
        assert time.monotonic() - t0 < 1.0

    def test_link_table_limit_falls_between_genus_26_and_27(self):
        # 32 g^4 bytes: 14,623,232 at g = 26, 17,006,112 at g = 27
        assert chain_surface(26).genus == 26
        with pytest.raises(BudgetError, match="17006112-byte link table"):
            chain_surface(27)

    def test_small_genus_rejected(self):
        for bad in (0, 1, -3, 2.0):
            with pytest.raises(HypothesisError):
                chain_surface(bad)

    @pytest.mark.parametrize("g", [2, 3, 4, 5])
    def test_counts_and_genus(self, g):
        S = chain_surface(g)
        assert S.graph.n_vertices == 2 * g - 1
        assert S.graph.n_edges == 2 * g + (2 * g - 2)
        assert S.graph.n_boundaries == 1
        assert S.graph.genus == g
        # the single boundary walk uses every dart once
        assert len(S.boundary_walk) == 2 * S.graph.n_edges
        assert len(S.boundary_word) == 4 * g

    def test_frozen_rose_order_genus_two(self, chain2):
        assert chain2.rose_order.letters == (-1, 2, 1, 3, -2, -4, -3, 4)

    def test_frozen_boundary_word_genus_two(self, chain2):
        assert chain2.boundary_word == (1, 2, -4, -1, 3, 4, -3, -2)
        # one relation of length 4g: the surface group presentation
        assert sorted(abs(l) for l in chain2.boundary_word) == [1, 1, 2, 2, 3, 3, 4, 4]

    def test_core_classes_are_the_generators(self, chain3):
        for i in range(1, 7):
            assert chain3.core_class(i) == CurveClass.from_letters((i,))

    def test_core_walks_cover_each_circle_once(self, chain2):
        seen = set()
        for i in range(1, 5):
            darts = chain2.circle_darts(i)
            assert not (darts & seen)
            seen |= darts
        assert seen == set(chain2.graph.darts)

    def test_boundary_class_is_commutator_product(self, chain2):
        # abelianization of the boundary word vanishes
        from diskcomplex.words import abelianized

        assert abelianized(chain2.boundary_word, 4) == (0, 0, 0, 0)

    def test_rose_order_independent_of_contraction_order(self, chain3):
        ids = {name: d for d, name in chain3.labels.items()}
        rose = chain3.graph
        for i in (4, 2, 5, 3):  # scrambled tree order
            rose = rose.with_edge_contracted(ids[f"f{i}+"])
        assert rose.n_vertices == 1
        letters = tuple(chain3.letters[d] for d in rose.rot[0])
        # same cyclic word as the stored order
        stored = chain3.rose_order.letters
        k = letters.index(stored[0])
        assert letters[k:] + letters[:k] == stored

    def test_homological_pairing_is_skew_tridiagonal(self, chain3):
        omega = chain3.homological_pairing()
        n = len(omega)
        for a in range(n):
            for b in range(n):
                assert omega[a][b] == -omega[b][a]
                if abs(a - b) > 1:
                    assert omega[a][b] == 0
                elif abs(a - b) == 1:
                    assert omega[a][b] in (1, -1)
