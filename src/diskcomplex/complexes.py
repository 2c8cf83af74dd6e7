"""Finite simplicial complexes with exact integer homology.

A complex is stored as a list of faces over int vertex ids that generates
it, which need not hold only maximal faces.  No list of all its faces is
kept: the homology builds only the faces it must and counts the rest, so
HomologyProfile.cells is the f-vector.  Homology is reduced and always
computed in every degree, so a probe of low degrees runs the same
computation as the sphere certificate.  All arithmetic uses Python ints,
so there is no overflow to detect: intermediate entries grow as needed.

reduced_homology computes the homology of the pair (K, A), where A is an
acyclic subcomplex (Mrozek, Pilarczyk and Zelazna, Comput. Math. Appl.
2008): by the long exact sequence of the pair, H(K, A) is the reduced
homology of K.  A is grown over the listed faces in lexicographic order:
a face joins when it meets A in a union of its ridges that is a cone, the
shelling step of Bjorner and Danaraj-Klee, so A stays acyclic by
Mayer-Vietoris.  The faces A gains are counted by binomials and never
built.  On the interval spheres A takes every facet but one, at g = 2..6,
so the relative chain complex has a single cell.  The cells are the
faces outside A, each with its boundary restricted to the faces outside
A and its incidences taken from the full boundary.

The relative cells then lose pairs, and a Smith normal form is taken of
what is left.  A pair is a cell with exactly one live face, taken with
that face (a coreduction, Mrozek-Batko, DCG 2009), or a face with exactly
one live coface, taken with that coface (a reduction).  Simplicial
incidences are +-1, so every pair is joined by a unit, and eliminating
it changes the other boundaries by a multiple of the pair's own boundary
(Kaczynski-Mrozek-Slusarek, 1998).  For these two kinds of pair that
multiple is zero on every live cell: the remaining boundaries are merely
restricted to the live cells, and homology over Z, torsion included, is
unchanged.

The Smith form sees only the cells the pair removals leave: none on the
interval spheres at g = 2..5, whose one cell has no boundary, 54 cells
on the g = 3, L = 5 sample and 294 on g = 3, L = 6.  So it is plain
elimination that keeps the divisibility chain as it goes: the pivot is
the smallest nonzero entry, its column and row are cleared by Euclidean
steps, and a pivot left alone that fails to divide a remaining entry
first adds that entry's row to its own (Cohen, GTM 138, 2.4), so every
pivot divides the next.  Among entries of equal size the pivot is the
one whose row and column are shortest: this keeps the fill low, and
with it the units, whose loss makes the entries of the remaining rows
grow with each pivot.

A flag complex can be shrunk before any face is built.
collapse_dominated_edges removes the edges of a graph that are dominated
(Boissonnat and Pritam, SoCG 2020): each removal is a sequence of
elementary collapses of the flag complex, so the flag complex of the
graph left has the same homotopy type, and reduced_homology of it gives
the same answer over Z.  The sampler's connectivity probe uses it, where
it keeps 1,027 of the 7,253 cells at g = 3, L = 5.  The sphere
certificate does not: no edge of an interval sphere is dominated, since
the link of an edge of a flag sphere is a sphere and never a cone.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import reduce
from itertools import combinations, compress
from math import comb
from operator import and_

from .errors import DomainError

# ---------------------------------------------------------------- complex


@dataclass(frozen=True, eq=False)
class SimplicialComplex:
    # sorted, distinct vertex tuples whose faces make up the complex;
    # flag_from_graph lists exactly the maximal ones
    facets: tuple

    @classmethod
    def from_facets(cls, facets) -> "SimplicialComplex":
        """Sorted, distinct faces with sorted vertices; nested ones stay."""
        cleaned = sorted({tuple(sorted(set(f))) for f in facets})
        if not cleaned:
            raise DomainError("a complex needs at least one facet")
        if not cleaned[0]:
            raise DomainError("empty facet")
        return cls(tuple(cleaned))

    @property
    def dimension(self) -> int:
        return max(len(f) for f in self.facets) - 1


def _bits(mask: int):
    """Indices of the set bits of mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _adjacency(vertices, edges):
    """Sorted vertices and their neighbourhoods as int bitmasks.

    Bit i of adj[k] is set when order[k] and order[i] are joined by an
    edge.  Self-loops are ignored.
    """
    order = sorted(set(vertices))
    index = {v: i for i, v in enumerate(order)}
    adj = [0] * len(order)
    for a, b in edges:
        if a not in index or b not in index:
            raise DomainError(f"edge ({a}, {b}) has an endpoint outside the vertices")
        if a != b:
            adj[index[a]] |= 1 << index[b]
            adj[index[b]] |= 1 << index[a]
    return order, adj


def flag_from_graph(vertices, edges) -> SimplicialComplex:
    """Flag (clique) complex of a graph; isolated vertices become facets.

    The facets are the maximal cliques, enumerated by Bron-Kerbosch with
    Tomita pivoting (Tomita, Tanaka, Takahashi, TCS 2006) on int bitmasks
    over the sorted vertices.  Self-loops are ignored.
    """
    order, adj = _adjacency(vertices, edges)
    if not order:
        raise DomainError("flag complex of an empty graph")

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


def collapse_dominated_edges(vertices, edges) -> tuple:
    """Edges left after removing dominated edges until none is left.

    An edge uv is dominated when some w other than u and v has
    N[u] & N[v] contained in N[w], closed neighbourhoods of the current
    graph.  Removing it keeps the homotopy type of the flag complex
    (Boissonnat and Pritam, SoCG 2020), so the flag complex of the edges
    returned has the integral homology of the flag complex of the input,
    torsion included.  A dominating w is adjacent to u and v, so each
    removal keeps its component connected, and the core keeps a spanning
    forest of every component.  Returns the kept edges as sorted pairs, in
    the order of the sorted vertices; the vertices themselves all stay.
    """
    order, adj = _adjacency(vertices, edges)
    closed = [mask | 1 << i for i, mask in enumerate(adj)]
    removed = True
    while removed:
        removed = False
        for u in range(len(order)):
            for v in _bits(closed[u] >> (u + 1)):
                v += u + 1
                common = closed[u] & closed[v]
                if any(not common & ~closed[w]
                       for w in _bits(common ^ (1 << u) ^ (1 << v))):
                    closed[u] ^= 1 << v
                    closed[v] ^= 1 << u
                    removed = True
    return tuple(
        (order[u], order[u + 1 + v])
        for u in range(len(order))
        for v in _bits(closed[u] >> (u + 1))
    )


# ------------------------------------------------------------ smith form


def smith_normal_form(matrix) -> tuple:
    """Invariant factors and rank of an integer matrix.

    Returns (divisors, rank): the positive diagonal d_1 | d_2 | ... | d_r
    with ones included, and rank = len(divisors).  Each pivot is the
    smallest nonzero entry left, the one with the shortest row and
    column among equals; its column and then its row are cleared by
    Euclidean steps, a nonzero remainder becoming the new pivot.  A
    pivot p alone in its row and column that fails to divide an entry
    left takes that entry's row into its own, so the next remainder is
    smaller than |p| (Cohen, GTM 138, 2.4).  Each pivot then divides
    every entry left, and the pivots are the chain in the order they
    are found.  The pivot is found by a scan of all entries, which suits
    the small matrices the pair removals leave.  The matrix is taken
    only as a sparse {(row, col): value} dict, the form reduced_homology
    builds, and is not modified.
    """
    rows: dict = {}
    cols: dict = {}
    for (r, c), v in matrix.items():
        if v:
            rows.setdefault(r, {})[c] = v
            cols.setdefault(c, set()).add(r)
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
            else:  # alone in its column: a column move changes only row r
                row = rows[r]
                for c2 in list(row):
                    if c2 != c:
                        row[c2] %= p
                        if row[c2]:
                            c = c2
                            break
                        del row[c2]
                        cols[c2].discard(r)
                        if not cols[c2]:
                            del cols[c2]
                else:  # alone in its row too: take in a row p fails to divide
                    if abs(p) == 1:
                        break
                    r2 = next((r2 for r2, row2 in rows.items()
                               if any(v % p for v in row2.values())), None)
                    if r2 is None:
                        break
                    row_axpy(r, r2, 1)
        pivots.append(abs(rows[r].pop(c)))
        if not rows[r]:
            del rows[r]
        del cols[c]

    return tuple(pivots), len(pivots)


# --------------------------------------------------------------- homology


@dataclass(frozen=True)
class HomologyProfile:
    """Reduced integer homology: Betti numbers and torsion per degree.

    cells is the f-vector.  acyclic is the number of listed faces in the
    acyclic subcomplex A, and leftover counts per degree the cells of the
    pair (K, A), the faces outside A, that outlived the pair removals and
    went to the Smith form.  cells, acyclic and leftover describe the
    computation, not the homology, so they take no part in comparisons.
    """

    betti: tuple  # reduced Betti numbers, degrees 0..dim
    torsion: tuple  # per degree, tuple of invariant factors > 1
    acyclic: int = field(compare=False)
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


def _acyclic_subcomplex(facets) -> tuple:
    """An acyclic subcomplex A, grown over the listed faces in their order.

    The first listed face joins A.  A later one F is restricted to A by
    R, the set of v in F whose ridge F - v lies in a face of A, and it
    joins when 0 < |R| < |F| and no face of A contains R.  Then a face of
    F lies in A exactly when it misses a vertex of R, so F & A is the
    union of the ridges F - v (v in R): a cone over any vertex of F - R.
    By Mayer-Vietoris A | F is acyclic when A is.  This is the shelling
    step of Bjorner and Danaraj-Klee, used to grow the acyclic subspace
    of Mrozek, Pilarczyk and Zelazna (Comput. Math. Appl. 2008).  The
    faces F adds are those of the interval [R, F], so they are counted by
    binomials and never built.

    Nothing here needs the listed faces to be maximal.  A face of F in A
    that contains R would put R in A, so the faces of F in A are those
    that miss a vertex of R whichever listed faces put them there, and
    the binomials count only new faces.  A listed face inside a face of A
    has R = F and stays out, and _relative_cells builds no cell from it.
    One inside a later listed face G may join A first, and G is then
    judged against A as usual.  The cells are read off A's final stars
    into sets, so a face shared by two listed faces is one cell.

    Returns the flags of the listed faces in A, A's vertex stars as int
    bitmasks over their indices, and A's face counts by size, the empty
    face included.
    """
    star: dict = {}
    inside = [False] * len(facets)
    sizes = [0] * (max(map(len, facets)) + 1)
    for i, f in enumerate(facets):
        if i:
            stars = [star.get(v, 0) for v in f]
            # before[j] & after: the A-facets that contain the ridge f - f[j]
            before = [-1]
            for s in stars:
                before.append(before[-1] & s)
            after, r = -1, []
            for j in reversed(range(len(f))):
                if before[j] & after:
                    r.append(j)
                after &= stars[j]
            if not 0 < len(r) < len(f) or reduce(and_, (stars[j] for j in r)):
                continue
        else:
            r = ()
        inside[i] = True
        for v in f:
            star[v] = star.get(v, 0) | 1 << i
        free = len(f) - len(r)
        for k in range(free + 1):
            sizes[len(r) + k] += comb(free, k)
    return inside, star, sizes


def _relative_cells(facets, inside, star) -> tuple:
    """The faces outside A, with their boundaries relative to A.

    Every such face lies in a facet outside A, and it lies in A exactly
    when the A-stars of its vertices meet.  For each facet f outside A,
    meets[S] is the meet of the stars of the vertex subset S of f (bit j
    for f[j]), built from the subset without its last vertex.  Cells are
    numbered by dimension, then lexicographically.  boundary[c] lists the
    faces of c that are outside A, in lexicographic order, and signs[c]
    their incidences: (-1) ** p for the face that omits the p-th vertex
    of c, its sign in the full boundary.
    """
    layers = [set() for _ in range(max(map(len, facets)))]
    subsets: dict = {}  # (n, k): the k-subsets of range(n) as bitmasks
    for f, joined in zip(facets, inside):
        if joined:
            continue
        meets = [-1]
        for v in f:
            s = star.get(v, 0)
            meets += [m & s for m in meets]
        for k in range(1, len(f) + 1):
            if (len(f), k) not in subsets:
                subsets[len(f), k] = [
                    sum(1 << j for j in p) for p in combinations(range(len(f)), k)
                ]
            layers[k - 1].update(compress(
                combinations(f, k), [not meets[m] for m in subsets[len(f), k]]
            ))
    cells = [face for layer in layers for face in sorted(layer)]
    index = {face: c for c, face in enumerate(cells)}
    full = [tuple((-1) ** (k - i) for i in range(k + 1)) for k in range(len(layers))]
    boundary, signs = [], []
    for face in cells:
        faces = tuple(map(index.get, combinations(face, len(face) - 1)))
        incidences = full[len(face) - 1]
        if None in faces:
            kept = [y is not None for y in faces]
            faces = tuple(compress(faces, kept))
            incidences = tuple(compress(incidences, kept))
        boundary.append(faces)
        signs.append(incidences)
    return cells, boundary, signs


def _remove_pairs(boundary) -> list:
    """Live flags of the cells left after greedily removing pairs.

    A cell with one live face goes with that face, and a cell with one
    live coface goes with that coface.  The queue starts with every cell
    that has a count of 1, and a cell joins it again whenever one of its
    counts falls to 1.  Counts only fall, so a live cell left with a
    count of 1 when the queue runs dry was queued at the start or when
    that count last fell, and was paired when it was taken: so the
    search ends when the queue runs dry.  The queue starts in cell order,
    lowest dimension first, and the search spreads breadth first from
    there.
    """
    coboundary = [[] for _ in boundary]
    for c, faces in enumerate(boundary):
        for y in faces:
            coboundary[y].append(c)
    live = [True] * len(boundary)
    nfaces = [len(b) for b in boundary]
    ncofaces = [len(c) for c in coboundary]
    queue = deque(
        c for c in range(len(boundary)) if nfaces[c] == 1 or ncofaces[c] == 1
    )
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
    return live


def reduced_homology(complex_: SimplicialComplex) -> HomologyProfile:
    """Reduced homology over Z, as the homology of the pair (K, A).

    A is the acyclic subcomplex _acyclic_subcomplex grows, so by the long
    exact sequence of the pair H(K, A) equals the reduced homology of K.
    Its chain complex has a cell for each face outside A, and the empty
    face, which A contains, is not one of them.  The pair removals run on
    these cells; with leftover cells l_k and the ranks r_k of the
    restricted boundary maps, betti_k = l_k - r_k - r_{k+1}, and the
    torsion of H_k is read off the invariant factors of the restricted
    d_{k+1} exceeding 1.
    """
    top = complex_.dimension
    inside, star, sizes = _acyclic_subcomplex(complex_.facets)
    cells, boundary, signs = _relative_cells(complex_.facets, inside, star)
    live = _remove_pairs(boundary)

    relative = [0] * (top + 1)
    leftover = [0] * (top + 1)
    matrices = [{} for _ in range(top + 1)]
    for c, face in enumerate(cells):
        k = len(face) - 1
        relative[k] += 1
        if live[c]:
            leftover[k] += 1
            matrices[k].update(
                ((y, c), s) for y, s in zip(boundary[c], signs[c]) if live[y]
            )
    ranks = [0] * (top + 2)  # ranks[k]: rank of the restricted d_k
    invariants = [()] * (top + 2)
    for k, matrix in enumerate(matrices):
        if matrix:
            invariants[k], ranks[k] = smith_normal_form(matrix)

    return HomologyProfile(
        betti=tuple(leftover[k] - ranks[k] - ranks[k + 1] for k in range(top + 1)),
        torsion=tuple(
            tuple(d for d in invariants[k + 1] if d > 1) for k in range(top + 1)
        ),
        acyclic=sum(inside),
        leftover=tuple(leftover),
        cells=tuple(a + r for a, r in zip(sizes[1:], relative)),
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
    """Closed pseudomanifold test: purity, ridges in two facets, ridge-connectivity.

    complex_.facets are read as the maximal faces, as flag_from_graph and
    diskcx documents list them: pure means each has dim + 1 vertices.
    """
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
