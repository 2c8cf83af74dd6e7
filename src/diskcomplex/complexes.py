"""Finite simplicial complexes with exact integer homology.

Complexes are stored by their facets over int vertex ids, and
SimplicialComplex.faces_by_dim is the one place their faces are
enumerated: the f-vector and the cells of the homology both come from
it.  Homology is reduced: the chain complex is augmented by the empty
face in degree -1, and it is always computed in every degree, so a probe
of low degrees runs the same computation as the sphere certificate.
All arithmetic uses Python ints, so there is no overflow to detect:
intermediate entries grow as needed.

reduced_homology first removes cell pairs, then takes a Smith normal form
of what is left.  A pair is a cell with exactly one live face, taken with
that face (a coreduction, Mrozek-Batko, DCG 2009), or a face with exactly
one live coface, taken with that coface (a reduction).  Simplicial
incidences are +-1, so every pair is joined by a unit, and eliminating
it changes the other boundaries by a multiple of the pair's own boundary
(Kaczynski-Mrozek-Slusarek, 1998).  For these two kinds of pair that
multiple is zero on every live cell: the remaining boundaries are merely
restricted to the live cells, and homology over Z, torsion included, is
unchanged.  The search starts at the first vertex, whose only face is
the empty face, and spreads breadth first.  On the interval spheres it
leaves a single top cell.

The Smith form sees only the cells the pair removals leave: none on the
interval spheres at g = 2..5, 22 nonzeros on the g = 2, L = 6 sample,
241 (rank 93) on g = 3, L = 5 and 847 (rank 301) on g = 3, L = 6.  So it
is plain elimination: the pivot is the smallest nonzero entry, its row
and column are cleared by Euclidean steps, and the collected diagonal is
straightened into a divisibility chain by gcd/lcm exchanges (each
realized by unimodular operations on a 2x2 block, so the invariant
factors are unchanged).  Among entries of equal size the pivot is the
one whose row and column are shortest: this keeps the fill low, and with
it the units, whose loss makes the entries of the remaining rows grow
with each pivot.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from itertools import combinations
from math import gcd

from .errors import DomainError

# ---------------------------------------------------------------- complex


@dataclass(frozen=True, eq=False)
class SimplicialComplex:
    facets: tuple  # sorted vertex tuples, pairwise non-nested

    @classmethod
    def from_facets(cls, facets) -> "SimplicialComplex":
        """Sorted, deduplicated facets with every dominated face dropped.

        Faces are visited largest first, so a face is dominated exactly
        when some kept facet contains all its vertices: when the stars
        (sets of kept facets) of its vertices have a common member.
        """
        cleaned = sorted(
            {tuple(sorted(set(f))) for f in facets}, key=lambda f: (-len(f), f)
        )
        kept = []
        star: dict = {}
        for f in cleaned:
            if not f:
                raise DomainError("empty facet")
            stars = [star.get(v, set()) for v in f]
            if min(stars, key=len).intersection(*stars):
                continue
            for v in f:
                star.setdefault(v, set()).add(len(kept))
            kept.append(f)
        if not kept:
            raise DomainError("a complex needs at least one facet")
        return cls(tuple(sorted(kept)))

    @property
    def vertices(self) -> tuple:
        return tuple(sorted({v for f in self.facets for v in f}))

    @property
    def dimension(self) -> int:
        return max(len(f) for f in self.facets) - 1

    def faces_by_dim(self) -> dict:
        faces = {k: set() for k in range(self.dimension + 1)}
        for f in self.facets:
            for k in range(1, len(f) + 1):
                faces[k - 1].update(combinations(f, k))
        return {k: sorted(s) for k, s in faces.items()}

    def f_vector(self) -> tuple:
        faces = self.faces_by_dim()
        return tuple(len(faces[k]) for k in range(self.dimension + 1))

    @property
    def euler_characteristic(self) -> int:
        return sum((-1) ** k * n for k, n in enumerate(self.f_vector()))

    def is_pure(self) -> bool:
        return len({len(f) for f in self.facets}) == 1


def _bits(mask: int):
    """Indices of the set bits of mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def flag_from_graph(vertices, edges) -> SimplicialComplex:
    """Flag (clique) complex of a graph; isolated vertices become facets.

    The facets are the maximal cliques, enumerated by Bron-Kerbosch with
    Tomita pivoting (Tomita, Tanaka, Takahashi, TCS 2006) on int bitmasks
    over the sorted vertices.  Self-loops are ignored.
    """
    order = sorted(set(vertices))
    if not order:
        raise DomainError("flag complex of an empty graph")
    index = {v: i for i, v in enumerate(order)}
    adj = [0] * len(order)
    for a, b in edges:
        if a not in index or b not in index:
            raise DomainError(f"edge ({a}, {b}) has an endpoint outside the vertices")
        if a != b:
            adj[index[a]] |= 1 << index[b]
            adj[index[b]] |= 1 << index[a]

    cliques = []

    def expand(clique, cand, done):
        if not cand and not done:
            cliques.append(clique)
            return
        # the pivot covers the most candidates, so the fewest branches remain
        pivot = max(_bits(cand | done), key=lambda u: (cand & adj[u]).bit_count())
        for v in _bits(cand & ~adj[pivot]):
            bit = 1 << v
            expand(clique | bit, cand & adj[v], done & adj[v])
            cand &= ~bit
            done |= bit

    expand(0, (1 << len(order)) - 1, 0)
    # maximal cliques are distinct and pairwise non-nested: no cleanup
    return SimplicialComplex(
        tuple(sorted(tuple(order[i] for i in _bits(c)) for c in cliques))
    )


# ------------------------------------------------------------ smith form


def _to_sparse(matrix):
    """Accept dense list-of-lists or a {(r, c): v} dict."""
    if isinstance(matrix, dict):
        entries = matrix.items()
    else:
        entries = (
            ((r, c), v)
            for r, row in enumerate(matrix)
            for c, v in enumerate(row)
        )
    rows: dict = {}
    cols: dict = {}
    for (r, c), v in entries:
        if v:
            rows.setdefault(r, {})[c] = v
            cols.setdefault(c, set()).add(r)
    return rows, cols


def _chain_divisors(values) -> tuple:
    """Straighten a diagonal into a divisibility chain d1 | d2 | ..."""
    d = sorted(abs(v) for v in values)
    changed = True
    while changed:
        changed = False
        for i in range(len(d)):
            for j in range(i + 1, len(d)):
                if d[j] % d[i]:
                    g = gcd(d[i], d[j])
                    d[i], d[j] = g, d[i] * d[j] // g
                    changed = True
        d.sort()
    return tuple(d)


def smith_normal_form(matrix) -> tuple:
    """Invariant factors and rank of an integer matrix.

    Returns (divisors, rank): the positive diagonal d_1 | d_2 | ... | d_r
    with ones included, and rank = len(divisors).  Each pivot is the
    smallest nonzero entry left, the one with the shortest row and
    column among equals; its row and column are cleared by Euclidean
    steps, a nonzero remainder becoming the new pivot.  The pivot is
    found by a scan of all entries, which suits the small matrices the
    pair removals leave.
    """
    rows, cols = _to_sparse(matrix)
    pivots = []

    def row_axpy(dst, src, k):
        drow = rows.setdefault(dst, {})
        for c, v in rows[src].items():
            nv = drow.get(c, 0) + k * v
            if nv:
                drow[c] = nv
                cols.setdefault(c, set()).add(dst)
            elif c in drow:
                del drow[c]
                cols[c].discard(dst)
                if not cols[c]:
                    del cols[c]
        if not drow:
            del rows[dst]

    def col_axpy(dst, src, k):
        for r in list(cols.get(src, ())):
            v = rows[r][src]
            nv = rows[r].get(dst, 0) + k * v
            if nv:
                rows[r][dst] = nv
                cols.setdefault(dst, set()).add(r)
            else:
                rows[r].pop(dst, None)
                if dst in cols:
                    cols[dst].discard(r)
                    if not cols[dst]:
                        del cols[dst]

    while rows:
        *_, r, c = min(
            (abs(v), len(row) + len(cols[c2]), r2, c2)
            for r2, row in rows.items()
            for c2, v in row.items()
        )
        while True:
            p = rows[r][c]
            for r2 in list(cols[c]):
                if r2 != r:
                    q, rem = divmod(rows[r2][c], p)
                    if q:
                        row_axpy(r2, r, -q)
                    if rem:
                        r = r2
                        break
            else:  # the pivot is alone in its column; now clear its row
                for c2 in list(rows[r]):
                    if c2 != c:
                        q, rem = divmod(rows[r][c2], p)
                        if q:
                            col_axpy(c2, c, -q)
                        if rem:
                            c = c2
                            break
                else:
                    break
        pivots.append(abs(rows[r].pop(c)))
        if not rows[r]:
            del rows[r]
        del cols[c]

    return _chain_divisors(pivots), len(pivots)


# --------------------------------------------------------------- homology


@dataclass(frozen=True)
class HomologyProfile:
    """Reduced integer homology: Betti numbers and torsion per degree.

    cells is the f-vector, and leftover counts per degree the cells that
    outlived the pair removals and went to the Smith form.  cells and
    leftover describe the computation, not the homology, so they take no
    part in comparisons.
    """

    betti: tuple  # reduced Betti numbers, degrees 0..dim
    torsion: tuple  # per degree, tuple of invariant factors > 1
    leftover: tuple = field(compare=False)
    cells: tuple = field(compare=False)

    def is_reduced_sphere(self, dim: int) -> bool:
        if len(self.betti) <= dim:
            return False
        if any(t for t in self.torsion):
            return False
        return all(
            b == (1 if k == dim else 0) for k, b in enumerate(self.betti)
        )


def _augmented_boundaries(complex_: SimplicialComplex):
    """Boundaries of the empty face and of every face of the complex.

    Cells are numbered by dimension, then lexicographically: cell 0 is
    the empty face and cell 1 the first vertex.  boundary[c] lists the
    faces of c in lexicographic order, so for a k-cell c its i-th entry
    omits vertex k - i and has incidence (-1) ** (k - i).  starts[k + 1]
    is the first cell of dimension k, and starts[-1] the number of cells.
    """
    index = {(): 0}
    starts = [0]
    for layer in complex_.faces_by_dim().values():
        starts.append(len(index))
        index.update((f, i) for i, f in enumerate(layer, len(index)))
    starts.append(len(index))
    lookup = index.__getitem__
    boundary = [
        tuple(map(lookup, combinations(f, len(f) - 1))) if f else ()
        for f in index
    ]
    return boundary, starts


def _remove_pairs(boundary) -> list:
    """Live flags of the cells left after greedily removing pairs.

    A cell with one live face goes with that face, and a cell with one
    live coface goes with that coface.  Counts only fall, so a cell joins
    the queue when one of its counts falls to 1; a sweep over all cells
    fills the queue at the start and whenever it runs dry, and the search
    ends when a sweep finds nothing.  The first sweep queues every vertex,
    so the first pair is cell 1 with the empty face, and the search
    spreads breadth first from there.
    """
    coboundary = [[] for _ in boundary]
    for c, faces in enumerate(boundary):
        for y in faces:
            coboundary[y].append(c)
    live = [True] * len(boundary)
    nfaces = [len(b) for b in boundary]
    ncofaces = [len(c) for c in coboundary]
    queue = deque()
    while True:
        queue.extend(
            c for c, alive in enumerate(live)
            if alive and (nfaces[c] == 1 or ncofaces[c] == 1)
        )
        if not queue:
            return live
        while queue:
            c = queue.popleft()
            if not live[c]:
                continue
            if nfaces[c] == 1:
                other = next(y for y in boundary[c] if live[y])
            elif ncofaces[c] == 1:
                other = next(z for z in coboundary[c] if live[z])
            else:
                continue
            for x in (c, other):
                live[x] = False
                for y in boundary[x]:
                    if live[y]:
                        ncofaces[y] -= 1
                        if ncofaces[y] == 1:
                            queue.append(y)
                for z in coboundary[x]:
                    if live[z]:
                        nfaces[z] -= 1
                        if nfaces[z] == 1:
                            queue.append(z)


def reduced_homology(complex_: SimplicialComplex) -> HomologyProfile:
    """Reduced homology over Z: pair removals, then Smith forms of the rest.

    The cells are the empty face and every face of the complex.  After
    the pair removals, with leftover cells l_k and the ranks r_k of the
    restricted boundary maps, betti_k = l_k - r_k - r_{k+1}, and the
    torsion of H_k is read off the invariant factors of the restricted
    d_{k+1} exceeding 1.
    """
    top = complex_.dimension
    boundary, starts = _augmented_boundaries(complex_)
    live = _remove_pairs(boundary)

    leftover = []
    ranks = [0] * (top + 2)  # ranks[k]: rank of the restricted d_k
    invariants = [()] * (top + 2)
    for k in range(top + 1):
        kept = [c for c in range(starts[k + 1], starts[k + 2]) if live[c]]
        leftover.append(len(kept))
        matrix = {
            (y, c): (-1) ** (k - i)
            for c in kept
            for i, y in enumerate(boundary[c])
            if live[y]
        }
        if matrix:
            invariants[k], ranks[k] = smith_normal_form(matrix)

    return HomologyProfile(
        betti=tuple(leftover[k] - ranks[k] - ranks[k + 1] for k in range(top + 1)),
        torsion=tuple(
            tuple(d for d in invariants[k + 1] if d > 1) for k in range(top + 1)
        ),
        leftover=tuple(leftover),
        cells=tuple(b - a for a, b in zip(starts[1:], starts[2:])),
    )


# ---------------------------------------------------------- pseudomanifold


@dataclass(frozen=True)
class PseudomanifoldReport:
    pure: bool
    ridges_ok: bool
    strongly_connected: bool
    bad_ridges: tuple

    @property
    def ok(self) -> bool:
        return self.pure and self.ridges_ok and self.strongly_connected


def pseudomanifold_check(complex_: SimplicialComplex, dim: int) -> PseudomanifoldReport:
    """Closed pseudomanifold test: purity, ridges in two facets, ridge-connectivity."""
    facets = complex_.facets
    pure = all(len(f) == dim + 1 for f in facets)
    if not pure:
        return PseudomanifoldReport(False, False, False, ())

    ridge_map: dict = {}
    for i, f in enumerate(facets):
        for sub in combinations(f, dim):
            ridge_map.setdefault(sub, []).append(i)
    bad = tuple(sorted(r for r, fs in ridge_map.items() if len(fs) != 2))

    parent = list(range(len(facets)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for fs in ridge_map.values():
        for a, b in zip(fs, fs[1:]):
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[ra] = rb
    connected = len({find(i) for i in range(len(facets))}) <= 1

    return PseudomanifoldReport(pure, not bad, connected, bad)
