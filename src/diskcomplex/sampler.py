"""Sampling disk-bounding classes and probing the complex they span.

The full complex of disk-bounding curve classes is infinite, so finite
experiments take all classes up to a word length budget that bound a
disk on at least one side, and build the flag complex of the
disjointness graph on the sample, whose edges words.disjoint_pairs
decides.  Only the classes that die on a side
are generated: the class search keeps each side's surviving letters
freely reduced and prunes a prefix once both stacks are longer than the
number of letters still allowed, because a suffix of k letters cancels
at most k survivors.  Each generated class is then checked by
bounds_disk_sides, simplicity included.  Probes of that complex are
advisory by construction: a finite full subcomplex can have extra
homology and can miss simplices, so the probe results carry an explicit
conclusive=False and the one bound that is universal (at most 3g - 3 + b
pairwise disjoint distinct classes fit on the surface, so simplices have
dimension at most 3g - 4 + b) is enforced as an invariant.

The connectivity probe collapses the disjointness graph before it builds
any face.  An edge uv is dominated when a third vertex is adjacent to
u, to v and to every common neighbour of both.  Removing it collapses
the flag complex (Boissonnat and Pritam, SoCG 2020, extending the strong
collapses of Barmak and Minian, DCG 2012), so the flag complex of the
graph left has the same homotopy type and the same integral homology.
At g = 3, L = 5 the core keeps 335 of 813 edges and 1,027 of 7,253
cells.  The sample's own complex, and the facets a document records,
are those of the full graph.
"""

from __future__ import annotations

from dataclasses import dataclass

from .complexes import (
    SimplicialComplex,
    collapse_dominated_edges,
    flag_from_graph,
    reduced_homology,
)
from .errors import BudgetError, CurveError, DomainError, InternalInvariantError
from .handles import bounds_disk_sides
from .ribbon import ChainSurface
from .words import CurveClass, disjoint_pairs, key_letter


def _dying_classes(rank: int, max_len: int):
    """Canonical words of the classes of length 1..max_len that die on a side.

    Each such class is yielded once, by its canonical word.  The search is
    depth first over prenecklaces (Fredricksen-Kessler-Maiorana, in the
    form of Cattell, Ruskey, Sawada, Serra and Miers, J. Algorithms 2000)
    in the letter_key alphabet 0..2*rank-1, where the inverse of key x is
    x ^ 1 and no key is placed after its inverse.  A prefix a[1..n] whose
    longest Lyndon prefix has length p is its own least rotation exactly
    when p divides n; it is the canonical word of its class when, in
    addition, its last key does not cancel its first (it is cyclically
    reduced) and no rotation of its inverse is smaller.

    The search is bounded by the side test.  Each side keeps a stack of
    the prefix's surviving letters, freely reduced: odd generators (keys
    with (x >> 1) & 1 == 0) survive on side E, even ones on side O.  A
    suffix of k letters cancels at most k survivors, so once both stacks
    are longer than the max_len - n letters still allowed, no extension
    dies on either side and the prefix is pruned.  A canonical word is
    yielded only when one of its stacks is empty: a freely reduced word is
    empty after cyclic reduction exactly when it is empty.
    """
    a = [0] * (max_len + 1)  # a[0] = 0 starts the recursion with p = 1
    survivors = ([], [])  # freely reduced survivors on sides E and O

    def extend(t, p):
        n = t - 1
        if (n and n % p == 0 and a[n] ^ 1 != a[1]
                and not (survivors[0] and survivors[1])):
            word = tuple(a[1:t])
            inv = tuple(x ^ 1 for x in reversed(word)) * 2
            if all(word <= inv[s:s + n] for s in range(n)):
                yield tuple(map(key_letter, word))
        if n == max_len:
            return
        rest = max_len - t
        for x in range(a[t - p], 2 * rank):
            if n and x == a[n] ^ 1:
                continue
            a[t] = x
            stack = survivors[(x >> 1) & 1]
            cancels = bool(stack) and stack[-1] == x ^ 1
            if cancels:
                stack.pop()
            else:
                stack.append(x)
            if len(survivors[0]) <= rest or len(survivors[1]) <= rest:
                yield from extend(t + 1, p if x == a[t - p] else t)
            if cancels:
                stack.append(x ^ 1)
            else:
                stack.pop()

    yield from extend(1, 1)


@dataclass(frozen=True, eq=False)
class GammaSample:
    surface: ChainSurface
    max_length: int
    vertices: tuple  # CurveClass, shortlex order
    sides: tuple  # frozenset of Side, aligned with vertices
    edges: tuple  # (a, b) index pairs with disjoint classes
    complex: SimplicialComplex
    n_enumerated: int


def sample_gamma(
    surface: ChainSurface,
    budget: int,
    cap: int = 10**6,
    include=(),
) -> GammaSample:
    """All disk-bounding classes of word length <= budget, plus includes.

    Only the classes of length <= budget that die on a side are generated
    (a prefix is pruned once both sides' freely reduced survivors are
    longer than the letters still allowed), each once, by its canonical
    word.  Each is streamed once through bounds_disk_sides, whose sides
    are kept with each class it accepts.  n_enumerated is the number of
    freely reduced words of length 1..budget, the sum over k <= budget of
    4g(4g-1)^(k-1), which those classes stand for.  cap bounds that count,
    and the check runs before anything is enumerated, so an accidental
    budget=30 raises BudgetError at once.  Classes in include join the
    sample regardless of length but must themselves be disk-bounding.
    """
    if not isinstance(budget, int) or budget < 1:
        raise DomainError("budget must be a positive word length")
    rank = 2 * surface.genus
    count, words = 0, 2 * rank
    for _ in range(budget):
        count += words
        if count > cap:
            raise BudgetError(
                f"enumeration would pass the cap of {cap} words; "
                "lower the budget or raise the cap"
            )
        words *= 2 * rank - 1

    verts = {
        c: sides
        for c in map(CurveClass, _dying_classes(rank, budget))
        if (sides := bounds_disk_sides(surface, c))
    }
    for item in include:
        c = CurveClass.coerce(item, rank=rank)
        sides = bounds_disk_sides(surface, c)
        if not sides:
            raise CurveError(f"included class {c} bounds no disk")
        verts[c] = sides

    ordered = tuple(sorted(verts, key=lambda c: c.shortlex()))
    edges = disjoint_pairs(surface, ordered)
    return GammaSample(
        surface=surface,
        max_length=budget,
        vertices=ordered,
        sides=tuple(verts[c] for c in ordered),
        edges=edges,
        complex=flag_from_graph(range(len(ordered)), edges),
        n_enumerated=count,
    )


def max_simplex_probe(sample: GammaSample) -> int:
    """Largest simplex dimension in the sample; checks the universal bound.

    A system of pairwise disjoint pairwise non-homotopic essential curves
    on a genus g surface with one boundary has at most 3g - 2 curves, so
    any simplex here has dimension at most 3g - 3.
    """
    bound = 3 * sample.surface.genus - 3
    top = sample.complex.dimension
    if top > bound:
        raise InternalInvariantError(
            f"sample contains a {top}-simplex above the bound {bound}"
        )
    return top


@dataclass(frozen=True)
class ConnectivityProbe:
    betti0: int
    betti1: int
    conclusive: bool
    note: str


def connectivity_probe(sample: GammaSample) -> ConnectivityProbe:
    """Reduced betti numbers of the sample in degrees 0 and 1.

    They are read off a homotopy-equivalent core: the dominated edges of
    the disjointness graph are removed first (collapse_dominated_edges),
    and only the flag complex of what is left has its faces built.  A
    homotopy equivalence keeps integral homology, torsion included, so
    both numbers are exact.  The core keeps a spanning forest of every
    component of the graph, so it has dimension at least 1, and a degree
    1 to read, whenever the sample has an edge.
    """
    n = len(sample.vertices)
    core = collapse_dominated_edges(range(n), sample.edges)
    profile = reduced_homology(flag_from_graph(range(n), core))
    return ConnectivityProbe(
        betti0=profile.betti[0],
        betti1=profile.betti[1],
        conclusive=False,
        note=(
            "finite sample probe; a full subcomplex of the infinite "
            "complex can have homology the full complex lacks"
        ),
    )
