"""Independent oracles for the test suite.

Everything here is deliberately written from scratch against textbook
formulas, not by calling into diskcomplex, so that agreement between the
two is evidence rather than tautology.

* Christoffel words give the free homotopy classes of simple closed
  curves of slope (p, q) on a one holed torus; two slopes intersect in
  |ps - qr| points.

* The branch pattern model: the chain surface is the double cover of a
  disk branched over 2g+1 marked points, with circle i covering an arc
  between points i and i+1.  An interval [j, m] of circles corresponds
  to the set {j, ..., m+1} of branch points, and the frontier classes of
  the two intervals meet in 0, 1, 2 or 4 points according to whether the
  branch sets are nested/disjoint and to the parities of the intervals.
  The count depends only on the branch sets, so it is blind to which of
  the two frontier components an odd interval contributes; that makes it
  a fair referee for the engine's choices.

* Rational rank by fraction-free (Bareiss) elimination and Smith
  invariants by sympy, for homology cross-checks.

* The per-degree homology path, snf_homology: the package's Smith form
  of every full boundary matrix, over faces enumerated here.  It is the
  one reference that calls into diskcomplex, as a check of the pair
  removals in reduced_homology rather than of the Smith form itself.

* Crossings by rays: the linked-pair count of two primitive classes
  with every ray spelled out to the Fine-Wilf horizon and each triple
  oriented at the vertex where two of its rays part, whichever two those
  are.  It reads all three divergences of every triple instead of
  leaning on what pinning implies about two of them, so it referees the
  branch-point reading in words._linked_configurations.

* Free group words by brute force: every freely reduced word up to a
  length, and the canonical class of a word as the least key sequence over
  all rotations of it and of its inverse, and whether a word dies on a
  side, by deleting the killed letters and freely reducing the rest.
  Together they list the classes that die on a side up to a length.
  These are the references for the sampler's class search and for
  canonical_unoriented.  Whether the inner shifts of a word are already
  linked with each other is read tripod by tripod from the cyclic order,
  not from its link table, as the reference for the search's prune.

* Face counts by enumerating every face, as the reference for the
  f-vector that reduced_homology counts with binomials.

* Maximal cliques by subset enumeration, and the quadratic dominance
  filter that reduces a facet list to its maximal faces, as references
  for the clique enumerator and for homology on lists with nested faces.

* Earlier implementations kept as references for their rewrites: the
  facet cleanup that sorted and deduplicated every list, and the acyclic
  walk that took the meet of R's stars by reduce and added binomials per
  face.

* Cut pieces in closed form: the genus and boundary count of each piece
  of the chain surface cut along cores and a laminar family of even
  interval frontiers, by subtracting nested neighbourhoods.
"""

from functools import reduce
from itertools import combinations
from math import comb, gcd
from operator import and_

from sympy import Matrix
from sympy.matrices.normalforms import smith_normal_form as _sympy_snf

from diskcomplex import HomologyProfile, smith_normal_form

# ----------------------------------------------------------- torus slopes


def christoffel_word(p: int, q: int) -> tuple:
    """Word of the (p, q) curve on the one holed torus, letters 1 and +-2.

    Slopes (p, q) and (-p, -q) give one unoriented class, so signs are
    normalized to p > 0, or p = 0 and q > 0.
    """
    if gcd(abs(p), abs(q)) != 1:
        raise ValueError("slope must be primitive")
    if p < 0 or (p == 0 and q < 0):
        p, q = -p, -q
    if p == 0:
        return (2,)
    if q == 0:
        return (1,)
    y = 2 if q > 0 else -2
    qq = abs(q)
    n = p + qq
    word = []
    for k in range(1, n + 1):
        word.append(1 if (k * qq) % n > ((k - 1) * qq) % n else y)
    return tuple(word)


def torus_slope_intersection(pq, rs) -> int:
    (p, q), (r, s) = pq, rs
    return abs(p * s - q * r)


def primitive_slopes(bound: int) -> list:
    """All normalized primitive (p, q) with |p|, |q| <= bound."""
    out = set()
    for p in range(-bound, bound + 1):
        for q in range(-bound, bound + 1):
            if (p, q) == (0, 0) or gcd(abs(p), abs(q)) != 1:
                continue
            out.add((p, q) if p > 0 or (p == 0 and q > 0) else (-p, -q))
    return sorted(out)


# ------------------------------------------------------------ free group


def _key(letter: int) -> int:
    """Letter order g1 < g1^-1 < g2 < g2^-1 < ..."""
    return 2 * (abs(letter) - 1) + (letter < 0)


def reduced_words(rank: int, max_len: int):
    """Freely reduced words over +-1..rank up to max_len, depth first in
    the letter order g1 < g1^-1 < g2 < ..."""
    alphabet = sorted(
        (l for a in range(1, rank + 1) for l in (a, -a)), key=_key
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


def canonical_class(word) -> tuple:
    """Canonical word of the unoriented class of a freely reduced word:
    cyclically reduce, then take the rotation of the word or of its inverse
    whose key sequence is least."""
    w = list(word)
    while len(w) >= 2 and w[0] == -w[-1]:
        w = w[1:-1]
    if not w:
        raise ValueError("word reduces to the identity")
    inv = [-l for l in reversed(w)]
    rotations = [
        tuple(x[s:] + x[:s]) for x in (w, inv) for s in range(len(w))
    ]
    return min(rotations, key=lambda r: [_key(l) for l in r])


def dies_on_side(word, side: str) -> bool:
    """Whether the class of a word dies when side "O" or "E" is filled.

    Side O fills the odd chain circles, so it kills the odd generators g1,
    g3, ...; side E kills the even ones.  The surviving letters are freely
    reduced on a stack; a freely reduced word is empty after cyclic
    reduction exactly when it is empty, so the class dies exactly when the
    stack ends empty.
    """
    killed = {"O": 1, "E": 0}[side]
    stack: list = []
    for l in word:
        if abs(l) % 2 == killed:
            continue
        if stack and stack[-1] == -l:
            stack.pop()
        else:
            stack.append(l)
    return not stack


def dying_classes(rank: int, max_len: int) -> dict:
    """Canonical word -> set of the sides ("O", "E") it dies on, for each
    class of length 1..max_len that dies on a side."""
    sides = {}
    for w in reduced_words(rank, max_len):
        c = canonical_class(w)
        if c not in sides:
            sides[c] = {s for s in "OE" if dies_on_side(c, s)}
    return {c: s for c, s in sides.items() if s}


def self_linked_shifts(order, w) -> bool:
    """Whether two of the shifts 1..len(w)-1 of w form a linked base
    configuration: with a = w[s], back = -w[s-1], b = w[j] and
    c = -w[j-1], neither b nor c is a or back, and the tripods
    (a, b, back) and (a, c, back) are oriented oppositely.  Each such
    shift reads two letters of w, so it is a shift of every word that
    starts with w, and none of those words is simple."""
    shifts = [(w[s], -w[s - 1]) for s in range(1, len(w))]
    return any(
        b not in (a, back) and c not in (a, back)
        and order.cyc(a, b, back) != order.cyc(a, c, back)
        for a, back in shifts for b, c in shifts)


# ------------------------------------------------------ crossings by rays


def _rays(word, shift, horizon):
    p = len(word)
    fwd = tuple(word[(shift + t) % p] for t in range(horizon))
    back = tuple(-word[(shift - 1 - t) % p] for t in range(horizon))
    return fwd, back


def _divergence(a, b):
    for t in range(len(a)):
        if a[t] != b[t]:
            return t
    raise AssertionError("rays agree beyond the Fine-Wilf horizon")


def _orient3(order, r1, r2, r3) -> int:
    """Circular orientation of three distinct rays from one tree vertex.

    Whichever pair of rays shares the longest prefix parts company at a
    vertex the third ray left earlier; at that branch point the third
    direction is the edge back toward the base, whose label is the reversed
    previous letter.  When all three divergences agree the rays form a
    tripod at depth m and the three letters there decide directly.
    """
    d12 = _divergence(r1, r2)
    d13 = _divergence(r1, r3)
    d23 = _divergence(r2, r3)
    if d12 == d13 == d23:
        return order.cyc(r1[d12], r2[d12], r3[d12])
    # in a tree the two smallest divergences coincide, so the max is unique
    m, i, j = max((d23, 2, 3), (d13, 1, 3), (d12, 1, 2))
    rays = {1: r1, 2: r2, 3: r3}
    direction = {i: rays[i][m], j: rays[j][m]}
    k = ({1, 2, 3} - {i, j}).pop()
    direction[k] = -rays[i][m - 1]
    return order.cyc(direction[1], direction[2], direction[3])


def crossings_by_rays(order, u, v) -> int:
    """Linked configurations (s, j) of two primitive cyclically reduced
    words, both axes through one base vertex: the backward u-ray must leave
    the v-axis there (pinning), and the forward v-ray and backward v-ray
    must lie on opposite sides of the u-axis."""
    p, q = len(u), len(v)
    horizon = p + q + 2
    u_rays = [_rays(u, s, horizon) for s in range(p)]
    v_rays = [_rays(v, j, horizon) for j in range(q)]
    total = 0
    for s in range(p):
        fu, bu = u_rays[s]
        for j in range(q):
            fv, bv = v_rays[j]
            if bu[0] == fv[0] or bu[0] == bv[0]:
                continue
            if _orient3(order, fu, fv, bu) != _orient3(order, fu, bv, bu):
                total += 1
    return total


# --------------------------------------------------------- branch pattern


def branch_set(j: int, m: int) -> frozenset:
    return frozenset(range(j, m + 2))


def branch_crossing(jm_a, jm_b) -> int:
    """Predicted intersection number of the frontier classes of two intervals.

    The chain surface is the double cover of a disk branched over 2g+1
    marked points, with the j-th core circle lying over the segment between
    points j and j+1.  An interval [j, m] then sits over the segment spanned
    by branch_set(j, m), and its frontier is the preimage of a small circle
    around that segment: one curve when the branch set is odd (even
    interval), a pair swapped by the deck involution when it is even (odd
    interval, where the complex keeps a single chosen lift).

    Nested or disjoint branch sets give disjoint circles downstairs, so
    every lift pairing is disjoint.  Crossing branch sets force exactly two
    crossings downstairs, hence four preimage crossings upstairs, and the
    deck involution splits them evenly across lifts: an even interval's
    single curve collects 4 against an even interval and 2 against either
    lift of an odd one.  For two odd intervals each lift carries two of the
    four points, on the same opposite lift or one on each according to
    whether the connecting arc downstairs swaps sheets, i.e. according to
    the parity of the branch overlap: odd overlap spreads them 1 apiece,
    even overlap concentrates them, giving 2 for the coherently chosen
    lifts (and 0 for a mismatched pairing, which the complex never uses).
    """
    a, b = branch_set(*jm_a), branch_set(*jm_b)
    if a <= b or b <= a or not (a & b):
        return 0
    odd_a = (jm_a[1] - jm_a[0] + 1) % 2
    odd_b = (jm_b[1] - jm_b[0] + 1) % 2
    if odd_a + odd_b == 0:
        return 4
    if odd_a + odd_b == 1:
        return 2
    return 1 if len(a & b) % 2 else 2


# ---------------------------------------------------------------- cut pieces


def laminar_cut_pieces(genus: int, cores, intervals) -> tuple:
    """(genus, boundaries) of the pieces of the genus-g chain surface cut
    along cores z_i and the frontiers of even intervals [j, m], sorted
    largest first.

    The intervals must form a laminar family: any two are nested or
    disjoint.  Each interval J, and the whole chain with |J| = 2g, gives
    one piece: N_J, of genus |J|/2 and one boundary, less the N_K of its
    children K, each taking |K|/2 genus and adding one boundary, and cut
    along the cores that lie in J but in no child, each taking one genus
    and adding two boundaries.
    """
    family = [(1, 2 * genus)] + sorted(set(intervals))
    for j, m in family[1:]:
        if (m - j + 1) % 2:
            raise ValueError(f"odd interval [{j},{m}]")
    for (a, b), (c, d) in combinations(family[1:], 2):
        if not (b < c or d < a or a <= c <= d <= b or c <= a <= b <= d):
            raise ValueError(f"[{a},{b}] and [{c},{d}] overlap")

    def parent(lo, hi):
        return min((J for J in family
                    if J != (lo, hi) and J[0] <= lo and hi <= J[1]),
                   key=lambda J: J[1] - J[0])

    pieces = {J: [(J[1] - J[0] + 1) // 2, 1] for J in family}
    for K in family[1:]:
        piece = pieces[parent(*K)]
        piece[0] -= (K[1] - K[0] + 1) // 2
        piece[1] += 1
    for i in cores:
        piece = pieces[parent(i, i)]
        piece[0] -= 1
        piece[1] += 2
    return tuple(sorted((tuple(p) for p in pieces.values()), reverse=True))


# ------------------------------------------------------ exact linear algebra


def rational_rank(matrix) -> int:
    """Rank over Q by fraction-free (Bareiss) elimination on ints.

    After k pivots an entry below them is the (k+1)-minor on the pivot rows
    and columns and its own row and column, so each update
    (pivot * a - f * b) / previous pivot divides exactly (Sylvester's
    identity); the assertion checks that it does.
    """
    rows = [list(row) for row in matrix]
    ncols = len(rows[0]) if rows else 0
    rank, previous = 0, 1
    for col in range(ncols):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        top = rows[rank]
        for row in rows[rank + 1:]:
            f = row[col]
            for c in range(col, ncols):
                q, r = divmod(top[col] * row[c] - f * top[c], previous)
                assert r == 0, "Bareiss division must be exact"
                row[c] = q
        previous = top[col]
        rank += 1
    return rank


def sympy_invariants(matrix) -> tuple:
    """Nonzero diagonal of the Smith form, as positive ints."""
    m = Matrix(matrix)
    if m.rows == 0 or m.cols == 0:
        return ()
    s = _sympy_snf(m)
    diag = [abs(s[i, i]) for i in range(min(s.rows, s.cols))]
    return tuple(d for d in diag if d)


# ------------------------------------------------- brute force reduced betti


def faces_of(facets, k):
    """The k-faces of the complex with the given facets, sorted."""
    faces = set()
    for f in facets:
        if len(f) >= k + 1:
            faces.update(combinations(sorted(f), k + 1))
    return sorted(faces)


def face_counts(facets) -> tuple:
    """The f-vector, by enumerating the faces of every dimension."""
    top = max(len(f) for f in facets) - 1
    return tuple(len(faces_of(facets, k)) for k in range(top + 1))


def boundary_matrix(faces_low, faces_high) -> dict:
    """Sparse {(row, col): +-1} matrix of the simplicial boundary map,
    rows = lower faces."""
    index = {f: i for i, f in enumerate(faces_low)}
    entries = {}
    for col, f in enumerate(faces_high):
        for omit in range(len(f)):
            sub = f[:omit] + f[omit + 1:]
            entries[(index[sub], col)] = (-1) ** omit
    return entries


def _boundary_dense(low, high):
    mat = [[0] * len(high) for _ in low]
    for (r, c), v in boundary_matrix(low, high).items():
        mat[r][c] = v
    return mat


def reduced_betti_and_torsion(facets):
    """Reduced integral homology of a small complex, independently.

    Betti numbers come from rational ranks, torsion from sympy Smith
    invariants of the next boundary matrix.
    """
    facets = [tuple(sorted(f)) for f in facets]
    dim = max(len(f) for f in facets) - 1
    faces = {k: faces_of(facets, k) for k in range(dim + 1)}
    ranks = {0: 1}  # augmentation: the empty face boundary has rank 1
    torsion_source = {}
    for k in range(1, dim + 2):
        if k > dim or not faces.get(k):
            ranks[k] = 0
            torsion_source[k] = ()
            continue
        mat = _boundary_dense(faces[k - 1], faces[k])
        ranks[k] = rational_rank(mat)
        torsion_source[k] = sympy_invariants(mat)
    betti = []
    torsion = []
    for k in range(dim + 1):
        betti.append(len(faces.get(k, ())) - ranks[k] - ranks[k + 1])
        torsion.append(tuple(d for d in torsion_source.get(k + 1, ()) if d > 1))
    return tuple(betti), tuple(torsion)


def snf_homology(facets):
    """Reduced homology from the Smith form of every boundary matrix.

    The per-degree path, kept as a reference for the pair removals in
    reduced_homology: betti_k = f_k - rank d_k - rank d_{k+1}, with the
    augmentation as d_0, and the torsion of H_k from d_{k+1}.  cells and
    leftover are both the f-vector, since nothing is removed.
    """
    facets = [tuple(sorted(f)) for f in facets]
    top = max(len(f) for f in facets) - 1
    faces = [faces_of(facets, k) for k in range(top + 1)]
    ranks = [1] + [0] * (top + 1)  # ranks[k]: rank of d_k, d_0 the augmentation
    invariants = [()] * (top + 2)
    for k in range(1, top + 1):
        invariants[k], ranks[k] = smith_normal_form(
            boundary_matrix(faces[k - 1], faces[k]))
    cells = tuple(map(len, faces))
    return HomologyProfile(
        betti=tuple(cells[k] - ranks[k] - ranks[k + 1] for k in range(top + 1)),
        torsion=tuple(tuple(d for d in invariants[k + 1] if d > 1)
                      for k in range(top + 1)),
        acyclic=0,
        leftover=cells,
        cells=cells,
    )


# ------------------------------------------------------- cliques and facets


def maximal_cliques_brute(vertices, edges) -> tuple:
    """Maximal cliques of a graph on at most 10 vertices, by trying every
    vertex subset; sorted tuples, in sorted order."""
    vertices = sorted(set(vertices))
    if len(vertices) > 10:
        raise ValueError("subset enumeration is for at most 10 vertices")
    adjacent = {frozenset(e) for e in edges}
    cliques = {
        c
        for k in range(1, len(vertices) + 1)
        for c in combinations(vertices, k)
        if all(frozenset(pair) in adjacent for pair in combinations(c, 2))
    }
    return tuple(sorted(
        c for c in cliques
        if not any(tuple(sorted(c + (v,))) in cliques
                   for v in vertices if v not in c)
    ))


def maximal_faces_quadratic(facets) -> tuple:
    """Distinct sorted facets that no other facet contains, by comparing
    each against every facet kept before it, largest first."""
    cleaned = sorted(
        {tuple(sorted(set(f))) for f in facets}, key=lambda f: (-len(f), f)
    )
    kept = []
    for f in cleaned:
        if not any(set(f) <= set(g) for g in kept):
            kept.append(f)
    return tuple(sorted(kept))


def collapse_by_full_passes(vertices, edges) -> tuple:
    """The dominated-edge collapse, examining every edge in every pass.

    Edge uv goes when some third vertex w of N[u] & N[v] has N[w]
    containing N[u] & N[v], closed neighbourhoods of the current graph.
    Each pass takes the edges by their lower end, then their higher end,
    in sorted order; passes repeat until one removes nothing.  Returns the
    kept edges as sorted pairs, in that order.
    """
    order = sorted(set(vertices))
    closed = {v: {v} for v in order}
    for a, b in edges:
        if a != b:
            closed[a].add(b)
            closed[b].add(a)
    removed = True
    while removed:
        removed = False
        for u in order:
            for v in sorted(w for w in closed[u] if w > u):
                common = closed[u] & closed[v]
                if any(common <= closed[w] for w in common - {u, v}):
                    closed[u].discard(v)
                    closed[v].discard(u)
                    removed = True
    return tuple((u, v) for u in order for v in sorted(closed[u]) if v > u)


# ------------------------------------------------ earlier implementations


def sorted_distinct_facets(facets) -> tuple:
    """A facet list with each facet's vertices made distinct and sorted,
    then the facets made distinct and sorted: what from_facets made of
    every list, clean or not."""
    return tuple(sorted({tuple(sorted(set(f))) for f in facets}))


def acyclic_subcomplex_by_reduce(facets) -> tuple:
    """The acyclic walk over the listed faces in their order, as first
    written: R as a list of indices, its stars' meet by reduce, and the
    binomials added for each face that joins.  Returns (inside, star,
    sizes) as _acyclic_subcomplex does."""
    star: dict = {}
    inside = [False] * len(facets)
    sizes = [0] * (max(map(len, facets)) + 1)
    for i, f in enumerate(facets):
        empty = -1 if i else 0
        stars = [star.get(v, 0) for v in f]
        before = [empty]
        for s in stars:
            before.append(before[-1] & s)
        after, r = empty, []
        for j in reversed(range(len(f))):
            if before[j] & after:
                r.append(j)
            after &= stars[j]
        if len(r) == len(f) or reduce(and_, (stars[j] for j in r), empty):
            continue
        inside[i] = True
        for v in f:
            star[v] = star.get(v, 0) | 1 << i
        free = len(f) - len(r)
        for k in range(free + 1):
            sizes[len(r) + k] += comb(free, k)
    return inside, star, sizes
