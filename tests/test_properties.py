"""Seeded property tests of the curve algebra on random words.

Standard library random only, with fixed seeds, so every run checks the
same 2,000 freely reduced words at genus 2..4 and the same vertex pairs.
"""

import random

import pytest

from diskcomplex import (
    Side,
    algebraic_intersection,
    canonical_unoriented,
    chain_surface,
    dies_on,
    geometric_intersection,
    inverse,
    sample_gamma,
)
from oracles import canonical_class

WORDS = 2000


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
        # is_disk_vertex runs the side test on canonical words only, which
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
