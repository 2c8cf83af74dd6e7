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
A, and only the incidences the Smith form reads are given signs.

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
interval spheres at g = 2..6, whose one cell has no boundary, 54 cells
on the g = 3, L = 5 sample and 294 on g = 3, L = 6.  So it is plain
elimination on the smallest entry that keeps the divisibility chain as
it goes (Cohen, GTM 138, 2.4; smith_normal_form says how).  Among
entries of equal size the pivot is the one whose row and column are
shortest: this keeps the fill low, and with it the units, whose loss
makes the entries of the remaining rows grow with each pivot.

A flag complex can be shrunk before any face is built.
collapse_dominated_edges removes the edges of a graph that are dominated
(Boissonnat and Pritam, SoCG 2020): each removal is a sequence of
elementary collapses of the flag complex, so the flag complex of the
graph left has the same homotopy type, and reduced_homology of it gives
the same answer over Z.  sampler.flag_homology uses it for the sampler's
connectivity probe and for diskcx homology on a gamma document, where it
keeps 1,027 of the 7,253 cells at g = 3, L = 5.  Such a document lists
facets and edges, and flag_cells checks that the facets generate the
flag complex of the edges before the edges are trusted; its clique walk
builds no face and gives the f-vector, which the core cannot.  The
sphere certificate does not collapse: no edge of an interval sphere is
dominated, since the link of an edge of a flag sphere is a sphere and
never a cone.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import reduce
from itertools import combinations, compress
from math import comb
from operator import and_, eq, lt

from .errors import BudgetError, DomainError

# The relative cells are read off every vertex subset of each facet outside
# A, so their enumeration is bounded by the sum of 2^|F| over those facets,
# at about 550 bytes a subset (a lone 20-vertex facet outside A takes 11 s
# and 574 MB).  The largest sum met in practice is 1,095,544, on the g = 4,
# L = 5 sample (the interval spheres need 2^(2g - 1), 2,048 at g = 6); this
# limit leaves 10.9x room above it and refuses a lone facet outside A of 24
# or more vertices.
MAX_RELATIVE_SUBSETS = 12_000_000

# The clique walk of flag_cells takes one step for every face of a flag
# complex.  The largest sample it serves, g = 4, L = 7, has 20,700,830
# faces, walked in about 12 s on a 2-CPU host; this limit leaves 2.4x room
# above it.
MAX_CLIQUES = 50_000_000

# ---------------------------------------------------------------- complex


@dataclass(frozen=True, eq=False)
class SimplicialComplex:
    # sorted, distinct vertex tuples whose faces make up the complex;
    # flag_from_graph lists exactly the maximal ones
    facets: tuple

    @classmethod
    def from_facets(cls, facets) -> "SimplicialComplex":
        """Sorted, distinct faces with sorted vertices; nested ones stay.

        A list that is already so, every face strictly increasing and the
        faces strictly increasing, as diskcx writes them, is kept as read;
        any other is sorted and deduplicated.
        """
        read = list(map(tuple, facets))
        if all(map(lt, read, read[1:])) and all(
                all(map(lt, f, f[1:])) for f in read):
            cleaned = read
        else:
            cleaned = sorted({tuple(sorted(set(f))) for f in read})
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
    over the sorted vertices.  Each clique goes down the recursion as the
    tuple of its vertex ids and is sorted once, when it is found maximal.
    Self-loops are ignored.
    """
    order, adj = _adjacency(vertices, edges)
    if not order:
        raise DomainError("flag complex of an empty graph")

    cliques = []

    def expand(clique, cand, done):
        if not cand and not done:
            cliques.append(tuple(sorted(clique)))
            return
        # the pivot covers the most candidates, so the fewest branches
        # remain; the first such vertex, lowest bit first
        most, rest = -1, cand | done
        while rest:
            low = rest & -rest
            rest ^= low
            u = low.bit_length() - 1
            covered = (cand & adj[u]).bit_count()
            if covered > most:
                most, pivot = covered, u
        rest = cand & ~adj[pivot]
        while rest:
            bit = rest & -rest
            rest ^= bit
            v = bit.bit_length() - 1
            expand(clique + (order[v],), cand & adj[v], done & adj[v])
            cand ^= bit
            done |= bit

    expand((), (1 << len(order)) - 1, 0)
    # maximal cliques are distinct and pairwise non-nested: no cleanup
    cliques.sort()
    return SimplicialComplex(tuple(cliques))


def flag_cells(complex_: SimplicialComplex, edges):
    """The f-vector of the flag complex of edges, when complex_ generates it.

    It does when every listed face is a clique of the graph and every
    maximal clique is a listed face, whatever else is listed: repeated
    faces and faces of other listed faces.  The vertices are those of the
    listed faces and of the edges.  Returns None when it does not, and
    when a listed face has more than MAX_RELATIVE_SUBSETS vertex subsets:
    reduced_homology then decides whether its face path can take it.

    One depth-first walk on int bitmasks over the sorted vertices reaches
    each clique once, from the empty one, adding a vertex above the
    clique's highest one and adjacent to all of it (cand).  It builds no
    face list: a clique's children are counted by the size of cand, and
    only the children with candidates of their own are visited.  A clique
    is maximal when no vertex is adjacent to all of it (common is empty).
    The walk stops at the first maximal clique that is not listed and at
    the first clique larger than every listed face, and raises
    BudgetError past MAX_CLIQUES cliques.
    """
    width = max(map(len, complex_.facets))
    if 1 << width > MAX_RELATIVE_SUBSETS:
        return None
    order, adj = _adjacency(
        {v for f in complex_.facets for v in f} | {v for e in edges for v in e},
        edges)
    bit = {v: 1 << i for i, v in enumerate(order)}
    closed = {v: adj[i] | 1 << i for i, v in enumerate(order)}
    listed = set()
    for f in complex_.facets:
        mask = sum(map(bit.__getitem__, f))
        if reduce(and_, map(closed.__getitem__, f)) & mask != mask:
            return None
        listed.add(mask)
    counts = [0] * (width + 2)
    total = 0

    def walk(clique, size, common, cand):
        # counts[size] gains the children, cliques of size vertices
        nonlocal total
        if size > width:
            return False
        free = cand.bit_count()
        counts[size] += free
        total += free
        if total > MAX_CLIQUES:
            raise BudgetError(
                f"the flag complex of the edges has more than {MAX_CLIQUES} "
                "faces, the limit of the clique walk that counts them")
        while cand:
            low = cand & -cand
            cand ^= low
            below = common & adj[low.bit_length() - 1]
            if not below:
                if clique | low not in listed:
                    return False
            elif cand & below and not walk(clique | low, size + 1, below,
                                           cand & below):
                return False
        return True

    everything = (1 << len(order)) - 1
    if not walk(0, 1, everything, everything):
        return None
    return tuple(counts[1:counts.index(0, 1)])


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

    Such a w is a common neighbour of u and v adjacent to all the other
    common neighbours, so the dominating w are the common neighbours
    other than u and v that lie in the closed neighbourhood of each of
    them.  The test ANDs those neighbourhoods into that set and stops as
    soon as it is empty; the edge is dominated when it never is.

    The edges are examined in passes, in the order of their lower and then
    higher end, until a pass removes none.  A removal shrinks only the
    neighbourhoods of its two ends, and a shrinking N[w] dominates fewer
    edges, so an edge found undominated stays so until one of its own ends
    loses a neighbour.  A pass therefore examines only the edges with an
    end that lost one since the edge was last examined, reading the
    removal count (stamp) of each end's last loss against the count when
    the row of the lower end last began: it removes what examining every
    edge would, in the same order.
    """
    order, adj = _adjacency(vertices, edges)
    closed = [mask | 1 << i for i, mask in enumerate(adj)]
    stamp = [0] * len(order)  # removals made when the vertex last lost one
    began = [-1] * len(order)  # removals made when its row last began
    clock = 0
    removed = True
    while removed:
        removed = False
        for u in range(len(order)):
            last, began[u] = began[u], clock
            for v in _bits(closed[u] >> (u + 1)):
                v += u + 1
                if stamp[u] <= last and stamp[v] <= last:
                    continue
                meet = rest = (closed[u] & closed[v]) ^ (1 << u | 1 << v)
                while rest and meet:
                    low = rest & -rest
                    rest ^= low
                    meet &= closed[low.bit_length() - 1]
                if meet:
                    closed[u] ^= 1 << v
                    closed[v] ^= 1 << u
                    clock += 1
                    stamp[u] = stamp[v] = clock
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

    cells is the f-vector of the complex the homology was computed on,
    which sampler.flag_homology gives for the core of a flag complex.
    acyclic is the number of listed faces in the acyclic subcomplex A, and
    leftover counts per degree the cells of the pair (K, A), the faces
    outside A, that outlived the pair removals and went to the Smith form.
    cells, acyclic and leftover describe the computation, not the
    homology, so they take no part in comparisons.
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

    A listed face F is restricted to A by R, the set of v in F whose
    ridge F - v lies in a face of A, and it joins when |R| < |F| and no
    face of A contains R.  Every face of A contains the empty face, so
    the first listed face joins, and a later one with R empty stays out.
    When a later F joins, a face of F lies in A exactly when it misses a
    vertex of R, so F & A is the union of the ridges F - v (v in R), a
    cone over any vertex of F - R, and A | F is acyclic by Mayer-Vietoris.
    This is the shelling step of Bjorner and Danaraj-Klee, used to grow
    the acyclic subspace of Mrozek, Pilarczyk and Zelazna (Comput. Math.
    Appl. 2008).  F adds the faces of [R, F], counted by binomials.

    Nothing here needs the listed faces to be maximal.  A face of F in A
    that contains R would put R in A, so the faces of F in A are those
    that miss a vertex of R whichever listed faces put them there, and
    the binomials count only new faces.  A listed face inside a face of A
    has R = F and stays out, and _relative_cells builds no cell from it.
    One inside a later listed face G may join A first, and G is then
    judged against A as usual.  The cells are read off A's final stars
    into sets, so a face shared by two listed faces is one cell.

    A face that joins sets one bit, 1 << i, in the stars of its vertices,
    and the meet of R's stars is carried in the backward loop that finds
    R.  The faces A gains are counted by binomials once per shape
    (|F|, |R|), at the end; when A is pure, the counts of the shapes by
    |R| are the h-vector of its shelling.

    Returns the flags of the listed faces in A, A's vertex stars as int
    bitmasks over their indices, and A's face counts by size, the empty
    face included.
    """
    star: dict = {}
    inside = [False] * len(facets)
    shapes: dict = {}  # (|F|, |R|): how many faces of A had that shape
    for i, f in enumerate(facets):
        empty = -1 if i else 0  # the meet of no stars: all of A
        stars = [star.get(v, 0) for v in f]
        # before[j] & after: the A-faces that contain the ridge f - f[j]
        before = [empty]
        for s in stars:
            before.append(before[-1] & s)
        after = meet = empty  # meet: the A-faces that contain R
        r = 0
        for b, s in zip(reversed(before[:-1]), reversed(stars)):
            if b & after:
                r += 1
                meet &= s
            after &= s
        if r == len(f) or meet:
            continue
        inside[i] = True
        bit = 1 << i
        for v in f:
            star[v] = star.get(v, 0) | bit
        shapes[len(f), r] = shapes.get((len(f), r), 0) + 1
    sizes = [0] * (max(map(len, facets)) + 1)
    for (n, r), count in shapes.items():
        for k in range(n - r + 1):
            sizes[r + k] += count * comb(n - r, k)
    return inside, star, sizes


def _relative_cells(facets, inside, star) -> tuple:
    """The faces outside A, with their boundaries relative to A.

    Every such face lies in a facet outside A, and it lies in A exactly
    when the A-stars of its vertices meet.  For each facet f outside A,
    meets[S] is the meet of the stars of the vertex subset S of f (bit j
    for f[j]), built from the subset without its last vertex.  Cells are
    numbered by dimension, then lexicographically.  boundary[c] lists the
    faces of c that are outside A, in lexicographic order, unsigned.
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
    boundary = []
    for face in cells:
        faces = tuple(map(index.get, combinations(face, len(face) - 1)))
        if None in faces:
            faces = tuple(y for y in faces if y is not None)
        boundary.append(faces)
    return cells, boundary


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
    d_{k+1} exceeding 1.  Only the incidences between leftover cells are
    signed: (-1) ** p for a face that omits the p-th vertex of the cell,
    so that the two agree in their first p vertices and nowhere after.
    """
    top = complex_.dimension
    inside, star, sizes = _acyclic_subcomplex(complex_.facets)
    subsets = sum(1 << len(f) for f, joined in zip(complex_.facets, inside)
                  if not joined)
    if subsets > MAX_RELATIVE_SUBSETS:
        raise BudgetError(
            f"the {inside.count(False)} facets outside the acyclic subcomplex "
            f"have {subsets} vertex subsets, above the limit of "
            f"{MAX_RELATIVE_SUBSETS} that the relative cells may enumerate "
            "in memory; the complex is too large for this computation")
    cells, boundary = _relative_cells(complex_.facets, inside, star)
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
                ((y, c), (-1) ** sum(map(eq, face, cells[y])))
                for y in boundary[c] if live[y]
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
