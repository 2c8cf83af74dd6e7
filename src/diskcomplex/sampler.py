"""Sampling disk-bounding classes and probing the complex they span.

The full complex of disk-bounding curve classes is infinite, so finite
experiments enumerate all classes up to a word length budget, keep the
ones that bound a disk on at least one side, and build the flag complex
of the disjointness graph on the sample.  Probes of that complex are
advisory by construction: a finite full subcomplex can have extra
homology and can miss simplices, so the probe results carry an explicit
conclusive=False and the one bound that is universal (at most 3g - 3 + b
pairwise disjoint distinct classes fit on the surface, so simplices have
dimension at most 3g - 4 + b) is enforced as an invariant.
"""

from __future__ import annotations

from dataclasses import dataclass

from .complexes import SimplicialComplex, reduced_homology
from .errors import BudgetError, CurveError, DomainError, InternalInvariantError
from .handles import bounds_disk_sides, is_disk_vertex
from .intervals import disjointness_complex
from .ribbon import ChainSurface
from .words import CurveClass, canonical_unoriented, letter_key


def _reduced_words(rank: int, max_len: int):
    """Freely reduced words over +-1..rank up to max_len, depth first in
    the letter order g1 < g1^-1 < g2 < ..."""
    alphabet = sorted(
        (l for a in range(1, rank + 1) for l in (a, -a)), key=letter_key
    )
    prefix: list = []

    def extend():
        if prefix:
            yield tuple(prefix)
        if len(prefix) == max_len:
            return
        for l in alphabet:
            if prefix and l == -prefix[-1]:
                continue
            prefix.append(l)
            yield from extend()
            prefix.pop()

    yield from extend()


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

    budget bounds the length of enumerated representatives; cap bounds the
    raw number of enumerated words and raising BudgetError rather than
    grinding keeps accidental budget=30 runs from hanging.  Classes in
    include join the sample regardless of length but must themselves be
    disk-bounding.
    """
    if not isinstance(budget, int) or budget < 1:
        raise DomainError("budget must be a positive word length")
    rank = 2 * surface.genus
    classes = set()
    count = 0
    for word in _reduced_words(rank, budget):
        count += 1
        if count > cap:
            raise BudgetError(
                f"enumeration passed the cap of {cap} words; "
                "lower the budget or raise the cap"
            )
        if len(word) > 1 and word[0] == -word[-1]:
            continue  # not cyclically reduced; its class shows up shorter
        classes.add(canonical_unoriented(word))

    verts = {c for c in map(CurveClass, classes) if is_disk_vertex(surface, c)}
    for item in include:
        c = CurveClass.coerce(item, rank=rank)
        if not is_disk_vertex(surface, c):
            raise CurveError(f"included class {c} bounds no disk")
        verts.add(c)

    ordered = tuple(sorted(verts, key=lambda c: c.shortlex()))
    sides = tuple(bounds_disk_sides(surface, c) for c in ordered)
    edges, complex_ = disjointness_complex(surface, ordered)
    return GammaSample(
        surface=surface,
        max_length=budget,
        vertices=ordered,
        sides=sides,
        edges=edges,
        complex=complex_,
        n_enumerated=count,
    )


def max_simplex_probe(sample: GammaSample) -> int:
    """Largest simplex dimension in the sample; checks the universal bound.

    A system of pairwise disjoint pairwise non-homotopic essential curves
    on a genus g surface with one boundary has at most 3g - 2 curves, so
    any simplex here has dimension at most 3g - 3.
    """
    g = sample.surface.genus
    bound = 3 * g - 3
    top = max(len(f) for f in sample.complex.facets) - 1
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
    """Reduced betti numbers of the sample in degrees 0 and 1."""
    profile = reduced_homology(sample.complex)
    return ConnectivityProbe(
        betti0=profile.betti[0],
        betti1=profile.betti[1],
        conclusive=False,
        note=(
            "finite sample probe; a full subcomplex of the infinite "
            "complex can have homology the full complex lacks"
        ),
    )
