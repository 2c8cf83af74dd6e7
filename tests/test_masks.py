"""The tripod masks against the configuration scan and the ray oracle.

disjoint_pairs and is_simple decide whether two primitive roots u, v have
a linked configuration with one AND of their tripod masks, for the
configurations whose forward u-ray shares no first letter with a v-ray,
and a scan of the shared-letter configurations for the rest.  On every
ordered pair and every self pair of the interval classes at g = 2..5 and
of three samples, and on hypothesis-drawn cyclically reduced primitive
words at g = 2..4, that decision must equal both any() of
_linked_configurations and a nonzero ray-by-ray count from the oracles.
The table the masks read is checked against a reading of each
configuration off a walk around the order.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import diskcomplex.words as words
from diskcomplex import (
    CurveClass,
    bbm_vertices,
    chain_surface,
    cyclic_reduce,
    disk_vertices,
    geometric_intersection,
    sample_gamma,
)
from diskcomplex.words import (
    _linked_configurations,
    _period,
    _shared_configurations,
    _tripod_masks,
    disjoint_pairs,
    letter_key,
)
from oracles import crossings_by_rays

SURFACES = {g: chain_surface(g) for g in range(2, 6)}


def mask_decision(order, u, v) -> bool:
    linked, _ = _tripod_masks(order, u)
    _, present = _tripod_masks(order, v)
    return bool(linked & present) or any(_shared_configurations(order, u, v))


def assert_decisions_agree(order, u, v):
    want = crossings_by_rays(order, u, v) > 0
    assert any(_linked_configurations(order, u, v)) == want, (u, v)
    assert mask_decision(order, u, v) == want, (u, v)
    return want


@pytest.mark.parametrize("genus", [2, 3, 4, 5])
def test_table_against_each_configuration(genus):
    # reference: walking counterclockwise from a, a letter is in S when it
    # comes before back; bit (b, c) is set for an unpinned base
    # configuration with exactly one of b, c in S
    order = SURFACES[genus].rose_order
    letters = order.letters
    n = len(letters)
    assert len(order._links) == n * n
    for i, a in enumerate(letters):
        walk = letters[i:] + letters[:i]
        for back in letters:
            want = 0
            for b in letters:
                for c in letters:
                    if back == a or {a, back} & {b, c}:
                        continue
                    if (walk.index(b) < walk.index(back)) != (
                            walk.index(c) < walk.index(back)):
                        want |= 1 << (letter_key(b) * n + letter_key(c))
            assert order._links[letter_key(a) * n + letter_key(back)] == want


def vertex_roots(name):
    kind, *args = name.split("-")
    if kind == "intervals":
        surface = SURFACES[int(args[0])]
        classes = [v.curve for v in bbm_vertices(surface)[0]]
    else:
        surface = SURFACES[int(args[0])]
        classes = sample_gamma(surface, int(args[1]), cap=10**7).vertices
    return surface.rose_order, [c.root_and_power()[0].letters for c in classes]


@pytest.mark.parametrize("name", [
    "intervals-2", "intervals-3", "intervals-4", "intervals-5",
    "sample-2-7", "sample-3-4", "sample-3-5",
])
def test_every_ordered_and_self_pair(name):
    order, roots = vertex_roots(name)
    crossed = sum(assert_decisions_agree(order, u, v) for u in roots for v in roots)
    # both answers occur, on pairs and on self pairs alike
    assert 0 < crossed < len(roots) ** 2


@st.composite
def primitive_words(draw, genus):
    letters = [l for a in range(1, 2 * genus + 1) for l in (a, -a)]
    w = cyclic_reduce(draw(st.lists(st.sampled_from(letters), min_size=1, max_size=12)))
    if not w:
        w = (draw(st.sampled_from(letters)),)
    return w[:_period(w)]


@st.composite
def root_pairs(draw):
    genus = draw(st.integers(2, 4))
    return genus, draw(primitive_words(genus)), draw(primitive_words(genus))


@settings(max_examples=250, derandomize=True, database=None, deadline=None)
@given(root_pairs())
def test_drawn_primitive_words(pair):
    genus, u, v = pair
    order = SURFACES[genus].rose_order
    for x, y in ((u, v), (v, u), (u, u), (v, v)):
        assert_decisions_agree(order, x, y)


def random_classes(rng, genus):
    """A class list with 1-letter classes and proper powers: random
    cyclically reduced words of 1 to 7 letters, some raised to a power,
    and the powers of a few of them."""
    letters = [l for a in range(1, 2 * genus + 1) for l in (a, -a)]
    found = set()
    while len(found) < rng.randint(8, 24):
        w = cyclic_reduce(rng.choices(letters, k=rng.randint(1, 7)))
        if w:
            found.add(CurveClass.from_letters(w * rng.choice((1, 1, 1, 2, 3))))
    classes = sorted(found, key=CurveClass.shortlex)
    for c in rng.sample(classes, 3):
        classes.append(CurveClass.from_letters(c.letters * 2))
    classes += [CurveClass.from_letters((l,)) for l in rng.sample(letters, 2)]
    return list(dict.fromkeys(classes))


class TestDisjointPairs:
    """disjoint_pairs reads each root's scan table, built once, and gives
    the pairs whose full intersection count is 0 and whose roots the ray
    oracle finds no crossing of."""

    @pytest.mark.parametrize("seed", range(12))
    def test_random_class_lists(self, seed):
        rng = random.Random(8800 + seed)
        surface = SURFACES[rng.choice((2, 3))]
        order = surface.rose_order
        classes = random_classes(rng, surface.genus)
        roots = [c.root_and_power()[0].letters for c in classes]
        pairs = [(a, b) for a in range(len(classes))
                 for b in range(a + 1, len(classes))]
        by_count = {(a, b) for a, b in pairs if geometric_intersection(
            surface, classes[a], classes[b]) == 0}
        by_rays = {(a, b) for a, b in pairs
                   if crossings_by_rays(order, roots[a], roots[b]) == 0}
        edges = disjoint_pairs(surface, classes)
        assert list(edges) == sorted(edges)
        assert set(edges) == by_count == by_rays
        assert 0 < len(edges) < len(pairs)
        assert any(len(c) == 1 for c in classes)
        assert any(c.root_and_power()[1] > 1 for c in classes)

    @pytest.mark.parametrize("name, want", [
        ("intervals-4", 385), ("3-5", 813), ("3-6", 2683), ("4-5", 5182),
    ])
    def test_edge_counts(self, monkeypatch, name, want):
        kind, *args = name.split("-")
        if kind == "intervals":
            surface = SURFACES[int(args[0])]
            classes = [v.curve for v in bbm_vertices(surface)[0]]
        else:
            surface = SURFACES[int(kind)]
            classes = [c for c, _ in disk_vertices(surface, int(args[0]))]
        built = []
        table = words._scan_table

        def spy(w, horizon):
            built.append(w)
            return table(w, horizon)
        monkeypatch.setattr(words, "_scan_table", spy)
        assert len(disjoint_pairs(surface, classes)) == want
        # one table per root, none for a pair
        assert sorted(built) == sorted(c.letters for c in classes)
