"""Sampling disk-bounding classes and probing the complex they span.

The full complex of disk-bounding curve classes is infinite, so finite
experiments take all classes up to a word length budget that bound a
disk on at least one side, and build the flag complex of the
disjointness graph on the sample, whose edges words.disjoint_pairs
decides.  The classes and their sides come from handles.disk_vertices,
which decides each class's sides once, in its class search.  Probes of
that complex are advisory by construction: a finite full subcomplex can
have extra homology and can miss simplices, so the probe results carry
an explicit conclusive=False and the one bound that is universal (at
most 3g - 3 + b pairwise disjoint distinct classes fit on the surface,
so simplices have dimension at most 3g - 4 + b) is enforced as an
invariant.

The homology of a sample is read off a collapsed disjointness graph
(flag_homology), both by the connectivity probe and by diskcx homology on
a sample document.  An edge uv is dominated when a third vertex is
adjacent to u, to v and to every common neighbour of both.  Removing it
collapses the flag complex (Boissonnat and Pritam, SoCG 2020, extending
the strong collapses of Barmak and Minian, DCG 2012), so the flag complex
of the graph left has the same homotopy type and the same integral
homology.  At g = 3, L = 5 the core keeps 335 of 813 edges and 1,027 of
7,253 cells.  The sample's own complex, and the facets a document
records, are those of the full graph.
"""

from __future__ import annotations

from dataclasses import dataclass

from .complexes import (
    HomologyProfile,
    SimplicialComplex,
    collapse_dominated_edges,
    flag_from_graph,
    reduced_homology,
)
from .errors import BudgetError, CurveError, DomainError, InternalInvariantError
from .handles import bounds_disk_sides, disk_vertices
from .ribbon import ChainSurface
from .words import CurveClass, disjoint_pairs


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

    The classes of length <= budget and their sides come from
    handles.disk_vertices, each once.  n_enumerated is the number of
    freely reduced words of length 1..budget, the sum over k <= budget of
    4g(4g-1)^(k-1), which those classes stand for.  cap bounds that count,
    and the check runs before anything is enumerated, so an accidental
    budget=30 raises BudgetError at once, as does a budget past
    handles.MAX_CLASS_LENGTH under a cap that admits it.  Classes in
    include join the sample regardless of length but must pass
    bounds_disk_sides.
    """
    if type(budget) is not int or budget < 1:
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

    verts = dict(disk_vertices(surface, budget))
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


def flag_homology(vertices, edges, dimension: int) -> HomologyProfile:
    """Reduced homology of the flag complex of a graph, read off its core.

    The dominated edges are removed first (collapse_dominated_edges), and
    only the flag complex of the edges left has its faces built.  The two
    flag complexes are homotopy equivalent, so they have the same integral
    homology, torsion included.  The core may stop below the dimension of
    the full flag complex, so every tuple of the profile is padded with
    zeros to that dimension.  acyclic, leftover and cells describe the
    computation, on the core.
    """
    core = collapse_dominated_edges(vertices, edges)
    profile = reduced_homology(flag_from_graph(vertices, core))
    zeros = (0,) * (dimension + 1 - len(profile.betti))
    return HomologyProfile(
        betti=profile.betti + zeros,
        torsion=profile.torsion + ((),) * len(zeros),
        acyclic=profile.acyclic,
        leftover=profile.leftover + zeros,
        cells=profile.cells + zeros,
    )


def connectivity_probe(sample: GammaSample) -> ConnectivityProbe:
    """Reduced betti numbers of the sample in degrees 0 and 1.

    They are read off flag_homology of the disjointness graph, which
    builds only the faces of its dominated-edge core.  A homotopy
    equivalence keeps integral homology, torsion included, so both numbers
    are exact.  The sample's complex has dimension at least 1, and a
    degree 1 to read, whenever the sample has an edge.
    """
    profile = flag_homology(range(len(sample.vertices)), sample.edges,
                            sample.complex.dimension)
    return ConnectivityProbe(
        betti0=profile.betti[0],
        betti1=profile.betti[1],
        conclusive=False,
        note=(
            "finite sample probe; a full subcomplex of the infinite "
            "complex can have homology the full complex lacks"
        ),
    )
