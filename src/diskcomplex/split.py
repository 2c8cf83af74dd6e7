"""Cutting a chain surface along core circles and interval frontiers.

One surgery on the ribbon model, exact on the level of rotation systems:
cut_walk cuts along a circle parallel to one boundary walk w of an
induced subgraph.  At step t the darts strictly between rev(w[t]) and
w[t+1] in the rotation are the edges leaving the subgraph on that side
of w.  Each nonempty gap leaves its vertex for a trivalent sector vertex
on the new circle, carrying the gap plus a forward and a backward dart
along the circle, and every other dart stays where it is.  The darts a
cut adds are numbered below every dart of the graph it cuts, so they
never take the number of a surface dart that a later cut looks for.

cut_along applies it to a list of named curves (z{i} for core circles,
x:{j}-{m} for interval frontiers) and reports the components with their
genus and boundary counts.  Each curve is the frontier walk whose class
intervals.x_curve chooses for its interval, z_i being the interval
[i, i], read from one table per surface (curve_table).  A cut moves only
darts outside its interval, so the walks of every interval nested in it
are untouched; the largest interval is cut first, and the components
are read once, at the end.  Disjoint curves cut the surface into
1 + n - r pieces, for n curves whose classes span rank r in
H_1(S; Z/2), and the cut checks that count.  The scope is curves that
are pairwise disjoint, as words.disjoint_pairs decides it for their
classes; everything outside it raises UnsupportedCut rather than
guessing.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

from .errors import DomainError, HypothesisError, InternalInvariantError, UnsupportedCut
from .intervals import Interval, bbm_vertices, interval_walks
from .ribbon import ChainSurface, RibbonGraph
from .words import abelianized, disjoint_pairs


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


def cut_walk(graph: RibbonGraph, walk) -> RibbonGraph:
    """Ribbon graph of the surface cut along a circle parallel to walk.

    walk must be a boundary walk of an induced subgraph whose rotations
    graph still carries.  The circle becomes one sector vertex per
    nonempty gap; a walk with no gap has no edge leaving it on its side,
    so nothing would carry the circle.
    """
    fresh = min(0, *graph.darts) - 1
    sectors = []
    for t, d in enumerate(walk):
        back = graph.reverse_of(d)
        ahead = walk[(t + 1) % len(walk)]
        vertex = graph._vertex_of[back]
        if graph._vertex_of[ahead] != vertex:
            raise InternalInvariantError("walk disagrees with the rotation")
        cycle = graph.rot[vertex]
        k = cycle.index(back)
        turn = cycle[k + 1:] + cycle[:k + 1]  # the darts after back
        gap = turn[:turn.index(ahead)]
        if gap:
            sectors.append(gap)
    if not sectors:
        raise InternalInvariantError(
            "walk with no outgoing edges; the cut has no graph to carry it"
        )
    moved = {d for gap in sectors for d in gap}
    n = len(sectors)
    rot = [cycle if moved.isdisjoint(cycle)
           else tuple(d for d in cycle if d not in moved) for cycle in graph.rot]
    rot += [(fresh - 2 * s, fresh - 2 * s - 1) + gap for s, gap in enumerate(sectors)]
    rev = graph.rev + tuple(
        (fresh - 2 * s, fresh - 2 * ((s + 1) % n) - 1) for s in range(n))
    return RibbonGraph(rot=tuple(rot), rev=rev)


@lru_cache(maxsize=4)
def curve_table(surface: ChainSurface) -> dict:
    """(j, m) -> (walk, class) of the frontier of N_[j,m] that x_curve
    chooses, for every interval, read off bbm_vertices.  Keyed on the
    surface object, which hashes by identity."""
    table = {}
    for v in bbm_vertices(surface)[0]:
        walk = next(w for w in interval_walks(surface, v.interval)
                    if surface.walk_class(w) == v.curve)
        table[v.interval.j, v.interval.m] = walk, v.curve
    return table


def _gf2_rank(vectors) -> int:
    """Rank over Z/2 of integer vectors, read mod 2."""
    pivots = {}
    for vector in vectors:
        bits = sum(1 << i for i, x in enumerate(vector) if x % 2)
        while bits:
            top = bits.bit_length() - 1
            if top not in pivots:
                pivots[top] = bits
                break
            bits ^= pivots[top]
    return len(pivots)


@dataclass(frozen=True)
class SplitReport:
    ambient_genus: int
    ambient_boundaries: int
    n_curves: int
    components: tuple  # (genus, boundaries) pairs, sorted descending
    curve_names: tuple


def _curve_rows(surface: ChainSurface, specs) -> list:
    """(interval, walk, class) of each curve, z_i being the interval
    (i, i), once the list is checked to name distinct, pairwise disjoint
    curves."""
    n = surface.n_circles
    keys = [(s.index, s.index) if isinstance(s, CoreCurve) else (s.j, s.m)
            for s in specs]
    if len(set(keys)) != len(keys):
        raise UnsupportedCut("repeated curve in cut list")
    for s in specs:
        if isinstance(s, CoreCurve):
            if not 1 <= s.index <= n:
                raise DomainError(f"core index {s.index} outside 1..{n}")
        else:
            Interval(s.j, s.m, n)  # range check
    table = curve_table(surface)
    rows = [(k, *table[k]) for k in keys]
    disjoint = set(disjoint_pairs(surface, [c for _, _, c in rows]))
    for a, b in combinations(range(len(specs)), 2):
        if (a, b) not in disjoint:
            raise UnsupportedCut(f"{specs[a]} and {specs[b]} intersect")
    return rows


def cut_along(surface: ChainSurface, specs) -> SplitReport:
    """Cut along the named curves and report the resulting components.

    The curves must be pairwise disjoint.  Each is cut along its one
    frontier walk, in order of decreasing interval size (a core has size
    1), so a frontier is cut before the cores and the frontiers nested in
    its interval, and those are cut on its side.  Odd intervals cut as
    even ones do, and so does every facet of the interval sphere.
    """
    specs = [parse_curve_token(s) if isinstance(s, str) else s for s in specs]
    if not specs:
        raise DomainError("nothing to cut along")
    rows = _curve_rows(surface, specs)
    graph = surface.graph
    for _, walk, _ in sorted(rows, key=lambda row: row[0][0] - row[0][1]):
        graph = cut_walk(graph, walk)
    parts = graph.components()
    pairs = sorted(((c.genus, c.n_boundaries) for c in parts), reverse=True)

    # Every piece but the one holding the boundary of the surface is
    # bounded by cut curves alone, and the sets of curves that bound are
    # the sums that vanish in H_1(S; Z/2).
    rank = surface.rose_order.rank
    r = _gf2_rank(abelianized(c.letters, rank) for _, _, c in rows)
    if len(parts) != 1 + len(specs) - r:
        raise InternalInvariantError(
            f"{len(parts)} pieces, not 1 + {len(specs)} curves - rank {r}"
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
