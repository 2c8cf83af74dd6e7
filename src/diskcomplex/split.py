"""Cutting a chain surface along core circles and neighborhood frontiers.

One surgery on the ribbon model, exact on the level of rotation systems:
complement_of_neighborhood removes the open regular neighborhood of a set
of circles, and removing the neighborhood of a curve is cutting along
it.  The neighborhood itself is the induced sub-ribbon graph.  For the
complement we walk each frontier component of that subgraph; every time
the walk passes a vertex of the ambient graph it may skip over darts that
do not belong to the neighborhood, and those "gap" darts are exactly the
edges leaving the neighborhood.  Each nonempty gap becomes a trivalent
sector vertex on a new circle parallel to the frontier, carrying the gap
dart plus a forward and backward dart along the circle.  The darts a
surgery adds are numbered below every dart of the graph it cuts, so they
never take the number of a surface dart that a later cut looks for.

cut_along applies it to a list of named curves (z{i} for core circles,
x:{j}-{m} for neighborhood frontiers) and reports the components with
their genus and boundary counts, checking the piece count and the
bookkeeping of the report on the way.  A frontier cut keeps the
neighborhood N_J as a piece; a core cut drops its annulus.  The scope is
curves that are pairwise disjoint, as words.disjoint_pairs decides it for
their classes, with frontiers of even intervals only.  Everything outside
that scope raises UnsupportedCut rather than guessing.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import combinations

from .errors import DomainError, HypothesisError, InternalInvariantError, UnsupportedCut
from .intervals import Interval, interval_walks
from .ribbon import ChainSurface, RibbonGraph
from .words import disjoint_pairs


@dataclass(frozen=True)
class CoreCurve:
    index: int

    def __str__(self):
        return f"z{self.index}"


@dataclass(frozen=True)
class NeighborhoodBoundary:
    j: int
    m: int

    def __str__(self):
        return f"x:{self.j}-{self.m}"


_CORE = re.compile(r"^z([1-9]\d*)$")
_NBHD = re.compile(r"^x:([1-9]\d*)-([1-9]\d*)$")


def parse_curve_token(text: str):
    m = _CORE.match(text)
    if m:
        return CoreCurve(int(m.group(1)))
    m = _NBHD.match(text)
    if m:
        return NeighborhoodBoundary(int(m.group(1)), int(m.group(2)))
    raise DomainError(
        f"unrecognized curve token {text!r}: expected z<i> or x:<j>-<m>"
    )


def complement_of_neighborhood(graph: RibbonGraph, support_darts) -> RibbonGraph:
    """Ribbon graph of the surface minus an open neighborhood of circles.

    support_darts must be closed under reversal and induce the
    neighborhood subgraph.  Each frontier walk of that subgraph becomes a
    circle of sector vertices in the complement, one per nonempty gap.
    """
    support = frozenset(support_darts)
    if not support:
        raise UnsupportedCut("empty neighborhood support")
    sub = graph.subgraph(support)
    walks = sub.boundary_walks()

    fresh = min(0, *graph.darts) - 1
    rot = []
    rev_pairs = [(d, e) for d, e in graph.rev if d not in support]

    # vertices of the ambient graph carrying no support dart survive intact
    support_vertices = set()
    for d in support:
        support_vertices.add(graph._vertex_of[d])
    for idx, cycle in enumerate(graph.rot):
        if idx not in support_vertices:
            rot.append(tuple(cycle))

    claimed = set()
    for walk in walks:
        sectors = []  # list of gap dart tuples, in walk order
        for t, d in enumerate(walk):
            back = graph.reverse_of(d)
            vertex = graph.rot[graph._vertex_of[back]]
            k = vertex.index(back)
            gap = []
            for step in range(1, len(vertex)):
                cand = vertex[(k + step) % len(vertex)]
                if cand in support:
                    if cand != walk[(t + 1) % len(walk)]:
                        raise InternalInvariantError(
                            "frontier walk disagrees with ambient rotation"
                        )
                    break
                gap.append(cand)
            if gap:
                sectors.append(tuple(gap))
                claimed.update(gap)
        if not sectors:
            raise InternalInvariantError(
                "frontier component with no outgoing edges; the complement "
                "piece has no graph to carry it"
            )
        fwd = []
        bwd = []
        for _ in sectors:
            fwd.append(fresh)
            bwd.append(fresh - 1)
            fresh -= 2
        for s, gap in enumerate(sectors):
            rot.append((fwd[s], bwd[s]) + gap)
            rev_pairs.append((fwd[s], bwd[(s + 1) % len(sectors)]))

    stranded = {
        d
        for d in graph.darts
        if d not in support
        and graph._vertex_of[d] in support_vertices
        and d not in claimed
    }
    if stranded:
        raise InternalInvariantError(f"darts {sorted(stranded)} fell in no gap")
    return RibbonGraph(rot=tuple(rot), rev=tuple(rev_pairs))


@dataclass(frozen=True)
class SplitReport:
    ambient_genus: int
    ambient_boundaries: int
    n_curves: int
    components: tuple  # (genus, boundaries) pairs, sorted descending
    curve_names: tuple


def _validate_scope(surface: ChainSurface, specs) -> None:
    n = surface.n_circles
    if len(set(specs)) != len(specs):
        raise UnsupportedCut("repeated curve in cut list")
    classes = []
    for s in specs:
        if isinstance(s, CoreCurve):
            if not 1 <= s.index <= n:
                raise DomainError(f"core index {s.index} outside 1..{n}")
            classes.append(surface.core_class(s.index))
            continue
        interval = Interval(s.j, s.m, n)  # range check
        if interval.size % 2:
            raise UnsupportedCut(
                f"odd interval {interval}: its frontier has two components "
                "and no canonical single cut"
            )
        classes.append(surface.walk_class(interval_walks(surface, interval)[0]))
    disjoint = set(disjoint_pairs(surface, classes))
    for a, b in combinations(range(len(specs)), 2):
        if (a, b) not in disjoint:
            raise UnsupportedCut(f"{specs[a]} and {specs[b]} intersect")


def cut_along(surface: ChainSurface, specs) -> SplitReport:
    """Cut along the named curves and report the resulting components.

    The curves must be pairwise disjoint.  Every cut removes the
    neighborhood of its circles from the piece that holds them: the
    circles j..m for x:j-m, whose neighborhood N_J stays as a piece, and
    circle i for z_i, whose annulus is dropped.  The largest support is
    cut first, so a frontier is cut before the cores and the frontiers
    nested in its interval, and those are cut in N_J.
    """
    specs = [parse_curve_token(s) if isinstance(s, str) else s for s in specs]
    if not specs:
        raise DomainError("nothing to cut along")
    _validate_scope(surface, specs)

    supports = [
        surface.circle_darts(s.index) if isinstance(s, CoreCurve)
        else surface.interval_darts(s.j, s.m)
        for s in specs
    ]
    pieces = [surface.graph]
    for s, support in sorted(zip(specs, supports), key=lambda p: -len(p[1])):
        i = next((i for i, p in enumerate(pieces) if support <= p.darts), None)
        if i is None:
            raise InternalInvariantError("cut support spread over several pieces")
        ambient = pieces[i]
        kept = [] if isinstance(s, CoreCurve) else [ambient.subgraph(support)]
        pieces[i:i + 1] = kept + [complement_of_neighborhood(ambient, support)]

    parts = [c for p in pieces for c in p.components()]
    pairs = sorted(((c.genus, c.n_boundaries) for c in parts), reverse=True)

    # Every piece but the one holding the boundary of the surface is
    # bounded by cut curves alone.  Over Z/2 the cores are a basis of H_1,
    # so only frontiers can bound, and an even frontier bounds its N_J.
    n_frontiers = sum(isinstance(s, NeighborhoodBoundary) for s in specs)
    if len(parts) != 1 + n_frontiers:
        raise InternalInvariantError(
            f"{len(parts)} pieces, not 1 + {n_frontiers} frontiers"
        )
    report = SplitReport(
        ambient_genus=surface.genus,
        ambient_boundaries=surface.graph.n_boundaries,
        n_curves=len(specs),
        components=tuple(pairs),
        curve_names=tuple(str(s) for s in specs),
    )
    if not bookkeeping_check(report):
        raise InternalInvariantError("splitting report fails its bookkeeping")
    return report


def bookkeeping_check(report: SplitReport) -> bool:
    """Arithmetic consistency of a splitting report.

    Checks Euler additivity, the boundary count identity
    sum b_i = 2 n + b, and for closed ambient surfaces the genus identity
    g = (n - 1) - t + 2 + sum g_i with t the number of components.
    """
    g = report.ambient_genus
    b = report.ambient_boundaries
    n = report.n_curves
    comps = report.components
    if sum(2 - 2 * gi - bi for gi, bi in comps) != 2 - 2 * g - b:
        return False
    if sum(bi for _, bi in comps) != 2 * n + b:
        return False
    if b == 0:
        t = len(comps)
        if g != (n - 1) - t + 2 + sum(gi for gi, _ in comps):
            return False
    return True


@dataclass(frozen=True)
class DimensionTarget:
    genus: int
    boundaries: int
    dimension: int
    connectivity: int


def dims(genus: int, boundaries: int) -> DimensionTarget:
    """Expected dimension and connectivity of the sphere family of disks.

    Defined for surfaces with 2g - 2 + b >= 2.  The sphere has dimension
    2g - 2 for closed ambient surfaces, 2g - 3 + b with boundary, and
    b - 4 in genus zero; the complex it sits in is connected through one
    degree less than the next handle would allow, dropping by one for a
    single boundary component and by two for several.
    """
    g, b = genus, boundaries
    if g < 0 or b < 0 or 2 * g - 2 + b < 2:
        raise HypothesisError(
            f"surface (genus {g}, boundaries {b}) is too small: "
            "need 2g - 2 + b >= 2"
        )
    if g == 0:
        dim = b - 4
    elif b == 0:
        dim = 2 * g - 2
    else:
        dim = 2 * g - 3 + b
    neg_chi = 2 * g - 2 + b
    if b == 0:
        conn = neg_chi
    elif b == 1:
        conn = neg_chi - 1
    else:
        conn = neg_chi - 2
    return DimensionTarget(genus=g, boundaries=b, dimension=dim, connectivity=conn)
