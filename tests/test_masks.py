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

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diskcomplex import bbm_vertices, chain_surface, cyclic_reduce, sample_gamma
from diskcomplex.words import (
    _linked_configurations,
    _period,
    _shared_configurations,
    _tripod_masks,
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
