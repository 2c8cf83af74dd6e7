"""Interval curves and the subcomplex they span in the disk complex.

For a proper nonempty interval J = [j, m] of the chain circles, the
regular neighborhood N_J of the circles z_j, ..., z_m is a compact
subsurface; x_J denotes a boundary component of N_J.  The combinatorics
is read off the induced sub-ribbon graph: its boundary walks are the
components of the frontier of N_J, one walk when |J| is even and two when
|J| is odd (the rotation alternation forces this, and the builder treats
any other count as a model bug).

For odd |J| the two components are genuinely different classes in
general, and the vertex family must pick one.  The selection rule: keep
the components that bound a disk on the side predicted by the parity of
the interval (|J| even: O; |J| odd and j even: E; |J| odd and j odd: O),
then break a remaining tie by the shortlex order on canonical words.
Ties do occur, so each odd interval records an OddChoice with an
ambiguity flag; the sphere certificate downstream is the arbiter that the
convention is coherent.

The interval complex is the flag complex on the disjointness graph of the
chosen classes: edges where the geometric intersection number vanishes,
as decided by words.disjoint_pairs.
"""

from __future__ import annotations

from dataclasses import dataclass

from .complexes import SimplicialComplex, flag_from_graph
from .errors import InternalInvariantError, IntervalError
from .handles import Side, bounds_disk_sides
from .ribbon import ChainSurface
from .words import CurveClass, disjoint_pairs


@dataclass(frozen=True)
class Interval:
    j: int
    m: int
    ambient: int  # number of chain circles, 2g

    def __post_init__(self):
        if self.ambient < 4 or self.ambient % 2:
            raise IntervalError("ambient chain length must be 2g >= 4")
        if not 1 <= self.j <= self.m <= self.ambient:
            raise IntervalError(
                f"interval [{self.j},{self.m}] out of range 1..{self.ambient}"
            )
        if self.j == 1 and self.m == self.ambient:
            raise IntervalError("the full interval is peripheral, not a vertex")

    @property
    def size(self) -> int:
        return self.m - self.j + 1

    @property
    def predicted_side(self) -> Side:
        if self.size % 2 == 0:
            return Side.O
        return Side.E if self.j % 2 == 0 else Side.O

    def __str__(self):
        return f"[{self.j},{self.m}]"


def all_intervals(genus: int) -> list:
    n = 2 * genus
    return [
        Interval(j, m, n)
        for j in range(1, n + 1)
        for m in range(j, n + 1)
        if not (j == 1 and m == n)
    ]


def interval_walks(surface: ChainSurface, interval: Interval) -> list:
    sub = surface.graph.subgraph(surface.interval_darts(interval.j, interval.m))
    walks = sub.boundary_walks()
    expected = 1 if interval.size % 2 == 0 else 2
    if len(walks) != expected:
        raise InternalInvariantError(
            f"interval {interval} has {len(walks)} frontier components, "
            f"expected {expected}"
        )
    return walks


@dataclass(frozen=True)
class OddChoice:
    """Record of the two-component selection for an odd interval."""

    interval: Interval
    chosen: CurveClass
    rejected: CurveClass
    predicted: Side
    ambiguous: bool  # both components qualified and were distinct


def x_curve(surface: ChainSurface, interval: Interval):
    """Class of the selected boundary component of N_J, with its sides.

    Returns (CurveClass, bounds_disk_sides of it, OddChoice or None).
    """
    classes = []
    for walk in interval_walks(surface, interval):
        word = surface.walk_word(walk)
        if not word:
            raise InternalInvariantError(f"contractible frontier for {interval}")
        c = CurveClass.from_letters(word)
        if c == surface.boundary_class:
            raise InternalInvariantError(f"peripheral frontier for {interval}")
        classes.append(c)
    if len(classes) == 1:
        return classes[0], bounds_disk_sides(surface, classes[0]), None

    predicted = interval.predicted_side
    sides = {c: bounds_disk_sides(surface, c) for c in set(classes)}
    dying = [c for c in classes if predicted in sides[c]]
    if not dying:
        raise InternalInvariantError(
            f"no frontier component of {interval} is a simple class "
            f"bounding on side {predicted.value}"
        )
    chosen = min(dying, key=lambda c: c.shortlex())
    rejected = classes[1] if chosen == classes[0] else classes[0]
    choice = OddChoice(
        interval=interval,
        chosen=chosen,
        rejected=rejected,
        predicted=predicted,
        ambiguous=len(dying) == 2 and dying[0] != dying[1],
    )
    return chosen, sides[chosen], choice


@dataclass(frozen=True)
class IntervalVertex:
    interval: Interval
    curve: CurveClass
    sides: frozenset


def bbm_vertices(surface: ChainSurface):
    """All interval-curve vertices, ordered by (j, m).

    Returns (vertices, odd_choices).  Raises when two intervals carry one
    class or when a class is not a disk vertex on its parity-predicted
    side (so also when it is not simple or is peripheral); either means
    the model is broken and nothing downstream can be trusted.
    """
    vertices = []
    choices = []
    seen: dict = {}
    for interval in all_intervals(surface.genus):
        curve, sides, choice = x_curve(surface, interval)
        if interval.predicted_side not in sides:
            raise InternalInvariantError(
                f"frontier of {interval} is not a simple essential class "
                f"bounding on predicted side {interval.predicted_side.value}"
            )
        if curve in seen:
            raise InternalInvariantError(
                f"intervals {seen[curve]} and {interval} share the class {curve}"
            )
        seen[curve] = interval
        vertices.append(IntervalVertex(interval, curve, sides))
        if choice is not None:
            choices.append(choice)
    return vertices, choices


@dataclass(frozen=True, eq=False)
class IntervalComplexBuild:
    surface: ChainSurface
    vertices: tuple
    odd_choices: tuple
    edges: tuple  # index pairs (a, b), a < b, disjoint classes
    complex: SimplicialComplex


def build_complex(surface: ChainSurface) -> IntervalComplexBuild:
    """Flag complex on the disjointness graph of the interval classes."""
    vertices, choices = bbm_vertices(surface)
    edges = disjoint_pairs(surface, [v.curve for v in vertices])
    return IntervalComplexBuild(
        surface=surface,
        vertices=tuple(vertices),
        odd_choices=tuple(choices),
        edges=edges,
        complex=flag_from_graph(range(len(vertices)), edges),
    )
