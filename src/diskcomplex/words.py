"""Curve algebra on a once-punctured genus-g surface.

Free homotopy classes of loops on a compact oriented surface with one
boundary component are conjugacy classes in the free group
F = F(g_1, ..., g_{2g}).  This module fixes a canonical representative for
each unoriented class and computes geometric self- and pairwise
intersection numbers combinatorially.

Letters and words.  A letter is a nonzero int: +i stands for g_i, -i for
its inverse.  A word is a tuple of letters.  The order used everywhere for
canonical forms and tie-breaking is

    g_1 < g_1^-1 < g_2 < g_2^-1 < ...,

so inverses sort immediately after their generators (letter_key).

Intersection by linked pairs.  A ribbon structure on the wedge of 2g
circles is a cyclic order rho on the 4g one-letter directions at the wedge
point (CyclicOrder).  In the universal cover, a tree, every vertex carries
the same rotation, because deck transformations preserve direction labels.
A nontrivial class w acts on the tree with an axis; minimal-position
representatives of two classes meet exactly where lifted axes cross, and
an axis crossing is visible at infinity: the two pairs of endpoints must
separate each other on the boundary circle.  Crossings of two
primitive classes u, v are therefore counted by the configurations
(s, j) in [0, p) x [0, q) that place both axes through a common base
vertex, keeping a configuration only when

  * the backward u-direction at the base leaves the v-axis there
    (pinning: this normalizes each crossing to the start of the common
    geodesic segment, so each double coset is counted once), and
  * the four rays F_u, B_u, F_v, B_v emanating from the base vertex
    alternate u, v, u, v in the circular order at infinity (linking).

Linking is read at one branch point per v-ray.  Pinning makes B_u leave
F_v and B_v at the base vertex, and cyclic reduction makes it leave F_u
there too.  In each of the triples (F_u, F_v, B_u) and (F_u, B_v, B_u)
only F_u and the v-ray can share letters, so the triple is oriented where
those two part: after m agreeing letters, rho orders u[s+m], v[j+m] and
the edge back toward the base, -u[s+m-1] (for B_v, after k letters,
u[s+k], -v[j-1-k] and -u[s+k-1]).  At m = 0 this is the tripod at the
base, where -u[s-1] is the first letter of B_u.  The configuration is
linked when the two orientations differ.

Most configurations have m = k = 0: the first letter a = u[s] of F_u is
neither b = v[j] nor c = -v[j-1], the first letters of F_v and B_v.  Both
triples are then the tripods (a, b, back) and (a, c, back) at the base,
with back = -u[s-1], and no ray is spelled out.  Such a configuration,
its pinning and the shared-letter exclusion depend only on those four
letters, so each CyclicOrder holds one table, _links: for each (a, back)
the mask of the pairs (b, c) that are unpinned, neither of them a, and
linked.  With S the letters that the counterclockwise walk from a passes
before back, those are the pairs with exactly one of b, c in S, so the
mask is the XOR of the rows over S and the columns over S, less the rows
and columns of a and back.  A word w carries two masks (_tripod_masks):
linked(w), the OR of the rows its shifts (w[s], -w[s-1]) name as
(a, back), and present(w), the bits those shifts name as (b, c).  Some
m = k = 0 configuration of (u, v) is linked exactly when
linked(u) & present(v) is nonzero.  Only a configuration where a opens a
v-ray (_shared_configurations) reads the repeated words and counts the
agreeing letters, and cyc orients its triples from CyclicOrder._ahead,
where _ahead[x][y] counts the counterclockwise steps from x to y.

Rays are compared letterwise to the horizon p + q + 2; by Fine and Wilf,
two distinct axes agreeing that far would be powers of a common word.
Under pinning this cannot happen on valid input: F_u agreeing with F_v to
the horizon agrees with it forever, backwards too, so u[s-1] = v[j-1] and
pinning has dropped the configuration (for B_v, u[s-1] = -v[j]).  The
horizon stays as a check against corrupted input: it keeps every scan
inside the repeated words, and a scan that reached it would raise.

The same count serves u = v.  The configuration s = j lays both axes on
one line, and pinning drops it: there the backward u-direction is
-u[s-1] = -v[j-1], which runs along the v-axis.  Every other pair of
shifts places two distinct lifts of the one axis; the involution swapping
the two strands pairs those configurations, so the count is even and is
twice the self-intersection number SI(u).

_linked_configurations yields the configurations the table marks, then
those of _shared_configurations.  Counts (pairwise intersection,
self-intersection and its parity check) read all of them, so they stay
exact.  The two yes-or-no tests only ask whether there is one: the edge
test i == 0 of disjoint_pairs, and the simplicity test is_simple, which
by the power formula below asks for a primitive class whose root is not
linked with itself (is_simple_word asks it of letters, with no
CurveClass).  Both are the same two steps: one AND of tripod masks, then
the shared-letter configurations, stopped at the first linked one.

Non-primitive classes are handled by the power formulas: the count for
r^a, s^b is ab times the count for their primitive roots r, s.  With
distinct roots that is ab i(r, s); with one root it is 2ab SI(r), the
crossings of the parallel axes of distinct classes r^a, r^b.  Finally
SI(r^k) = k^2 SI(r) + (k - 1).

Disjointness.  The disk complex is the flag complex of the relation
i(u, v) = 0, and disjoint_pairs decides it for every pair of a list of
classes.  Since a, b >= 1, i(r^a, s^b) = 0 exactly when the roots r, s
have no linked configuration.  The masks of each root are computed once,
so a pair with a linked m = k = 0 configuration is decided by one AND.
So is each root's scan table (_scan_table: which shifts each letter
opens, and the root and its inverse repeated past the horizon of the
longest pair), which the shared-letter scan of every other pair reads.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from operator import mul

from .errors import CurveError, InternalInvariantError, TrivialWordError

Word = tuple

# ---------------------------------------------------------------- letters


def letter_key(letter: int) -> int:
    """Position of a letter in the order g1 < g1^-1 < g2 < g2^-1 < ..."""
    if letter == 0:
        raise CurveError("0 is not a letter")
    return 2 * (abs(letter) - 1) + (0 if letter > 0 else 1)


def inverse(word) -> Word:
    return tuple(-l for l in reversed(word))


def free_reduce(letters) -> Word:
    out = []
    for l in letters:
        if l == 0:
            raise CurveError("words use nonzero letters")
        if out and out[-1] == -l:
            out.pop()
        else:
            out.append(l)
    return tuple(out)


def cyclic_reduce(letters) -> Word:
    w = free_reduce(letters)
    lo, hi = 0, len(w)
    while hi - lo >= 2 and w[lo] == -w[hi - 1]:
        lo += 1
        hi -= 1
    return w[lo:hi]


def key_letter(key: int) -> int:
    """The letter at a letter_key position; the inverse of key x is x ^ 1."""
    return -(key // 2 + 1) if key & 1 else key // 2 + 1


def canonical_unoriented(letters) -> Word:
    """Least representative over rotations of the word and of its inverse.

    The 2n rotations are compared as slices of doubled key tuples, so the
    letter order is integer order and each slice compares at C speed.
    """
    w = cyclic_reduce(letters)
    if not w:
        raise TrivialWordError("word reduces to the identity")
    # letter_key without its check: cyclic_reduce has rejected the letter 0
    k = tuple([2 * l - 2 if l > 0 else -2 * l - 1 for l in w])
    inv = tuple(x ^ 1 for x in reversed(k))
    n = len(k)
    best = min(d[s:s + n] for d in (k + k, inv + inv) for s in range(n))
    return tuple(map(key_letter, best))


def shortlex_key(word):
    return (len(word), tuple(map(letter_key, word)))


# ---------------------------------------------------------------- parsing

_TOKEN = re.compile(r"^(-?)g([1-9]\d*)$")


def parse_word(text: str, rank: int | None = None) -> Word:
    """Parse tokens like "g1 g2 -g1" into a letter tuple."""
    letters = []
    for tok in text.replace(",", " ").split():
        m = _TOKEN.match(tok)
        if not m:
            raise CurveError(f"bad generator token {tok!r}; expected g3 or -g3")
        l = int(m.group(2))
        if rank is not None and l > rank:
            raise CurveError(f"generator g{l} out of range; rank is {rank}")
        letters.append(-l if m.group(1) else l)
    if not letters:
        raise CurveError("empty word text")
    return tuple(letters)


def render_word(word) -> str:
    return " ".join(f"g{l}" if l > 0 else f"-g{-l}" for l in word)


# ------------------------------------------------------------ curve class


@dataclass(frozen=True)
class CurveClass:
    """Unoriented free homotopy class, stored by its canonical word."""

    letters: Word

    def __post_init__(self):
        if canonical_unoriented(self.letters) != self.letters:
            raise InternalInvariantError("CurveClass requires canonical letters")

    @classmethod
    def from_canonical(cls, letters) -> "CurveClass":
        """The class of letters that the caller made canonical: unchecked,
        so they are not canonicalised a second time."""
        c = object.__new__(cls)
        object.__setattr__(c, "letters", letters)
        return c

    @classmethod
    def from_letters(cls, letters, rank: int | None = None) -> "CurveClass":
        w = canonical_unoriented(letters)
        if rank is not None and any(abs(l) > rank for l in w):
            raise CurveError(f"letters exceed rank {rank}")
        return cls.from_canonical(w)

    @classmethod
    def from_string(cls, text: str, rank: int | None = None) -> "CurveClass":
        return cls.from_letters(parse_word(text, rank))

    @classmethod
    def coerce(cls, value, rank: int | None = None) -> "CurveClass":
        if isinstance(value, CurveClass):
            if rank is not None and any(abs(l) > rank for l in value.letters):
                raise CurveError(f"letters exceed rank {rank}")
            return value
        if isinstance(value, str):
            return cls.from_string(value, rank)
        return cls.from_letters(tuple(value), rank)

    def __len__(self):
        return len(self.letters)

    def __str__(self):
        return render_word(self.letters)

    def shortlex(self):
        return shortlex_key(self.letters)

    def root_and_power(self) -> tuple["CurveClass", int]:
        """Primitive root and exponent; the canonical word of w^k is periodic."""
        w = self.letters
        p = _period(w)
        if p == len(w):
            return self, 1
        # canonical: the rotations and inverse of r^k are those of r raised
        # to k, and x^k compares with y^k as x with y
        return CurveClass.from_canonical(w[:p]), len(w) // p


def _period(w) -> int:
    """Least p dividing len(w) with w == w[:p] * (len(w) // p)."""
    n = len(w)
    for p in range(1, n):
        if n % p == 0 and w == w[:p] * (n // p):
            return p
    return n


# ----------------------------------------------------------- cyclic order


@dataclass(frozen=True)
class CyclicOrder:
    """Counterclockwise order of the 4g directions at the wedge vertex."""

    letters: Word

    def __post_init__(self):
        n = len(self.letters)
        if n == 0 or n % 2:
            raise CurveError("a direction order has even length 4g")
        if len(set(self.letters)) != n or set(map(abs, self.letters)) != set(
            range(1, n // 2 + 1)
        ):
            raise CurveError("order must list +-1..+-rank once each")
        pos = {l: i for i, l in enumerate(self.letters)}
        # _ahead[x][y]: steps from x to y counterclockwise, so that x, y, z
        # are counterclockwise exactly when _ahead[x][y] < _ahead[x][z]
        object.__setattr__(self, "_ahead", {
            x: {y: (pos[y] - pos[x]) % n for y in self.letters}
            for x in self.letters
        })
        # _links[shift_id(n, x, y)], for the letter keys x of a and y of
        # back, has bit shift_id(n, b, c) set (keys again) when the tripods
        # (a, b, back) and (a, c, back) are oriented oppositely and neither
        # b nor c is a or back.  With S the letters passed on the ccw walk
        # from a before back, that is: exactly one of b, c in S, both
        # outside {a, back}.
        keys = [letter_key(l) for l in self.letters]
        row, column = (1 << n) - 1, sum(1 << (i * n) for i in range(n))
        links = [0] * (n * n)
        for i, x in enumerate(keys):
            rows, cols = row << (x * n), column << x  # b in S, c in S
            at_a = rows | cols
            for y in keys[i + 1:] + keys[:i]:
                links[shift_id(n, x, y)] = (rows ^ cols) & ~(
                    at_a | row << (y * n) | column << y)
                rows |= row << (y * n)
                cols |= column << y
        object.__setattr__(self, "_links", links)

    @property
    def rank(self) -> int:
        return len(self.letters) // 2

    def cyc(self, x: int, y: int, z: int) -> int:
        """+1 when the ccw arc from x to z passes y, else -1; x, y, z distinct."""
        d = self._ahead[x]
        return 1 if d[y] < d[z] else -1


# -------------------------------------------------- linked pair machinery


def _agreement(a, i, b, j, horizon: int) -> int:
    """Number of letters a[i:] and b[j:] share before they part."""
    for t in range(horizon):
        if a[i + t] != b[j + t]:
            return t
    raise InternalInvariantError("rays agree beyond the Fine-Wilf horizon")


def shift_id(n: int, x: int, y: int) -> int:
    """Index of a shift s of a word w, n = 4g, with x and y the letter keys
    of w[s] and -w[s - 1].  With w as the u of a configuration it indexes
    the link_table row of (a, back); as the v it is the bit of (b, c).
    """
    return x * n + y


def link_table(order) -> list:
    """The _links table of a CyclicOrder, indexed by shift_id."""
    return order._links


def _shift_ids(order, w) -> list:
    """shift_id of each shift of w, in order."""
    n = len(order.letters)
    ids = []
    y = letter_key(w[-1]) ^ 1
    for l in w:
        x = 2 * l - 2 if l > 0 else -2 * l - 1  # letter_key, inline
        ids.append(shift_id(n, x, y))
        y = x ^ 1
    return ids


def _tripod_masks(order, w) -> tuple:
    """(linked, present) masks of a cyclically reduced word w: the OR of
    the _links rows its shifts index, and the bits of those indices.

    Some configuration (s, j) of u, v with m = k = 0 is unpinned and
    linked exactly when linked(u) & present(v) is nonzero.
    """
    links = order._links
    linked = present = 0
    for i in _shift_ids(order, w):
        linked |= links[i]
        present |= 1 << i
    return linked, present


def _scan_table(w, horizon: int) -> tuple:
    """What a pair scan reads of a word w, for pairs of horizon at most
    horizon: opens[a] lists the shifts j where a is b = w[j] or
    c = -w[j - 1], then w and its inverse repeated, in whole periods, so
    far that no index below the horizon needs % (and ww[-1] is w[-1]).
    """
    opens: dict = {}
    for j, b in enumerate(w):
        opens.setdefault(b, []).append(j)
        opens.setdefault(-w[j - 1], []).append(j)
    reps = horizon // len(w) + 2
    return opens, w * reps, inverse(w) * reps


def _shared_configurations(order, u, v, tables=None):
    """Yield, in order, each unpinned, linked configuration (s, j) of
    primitive u, v whose forward u-ray starts along a v-ray (a in {b, c}).

    tables is the pair of _scan_tables of u and v, for a horizon of at
    least p + q + 2, built here unless the caller holds them.  The
    backward u-ray leaves the other three rays at the base, so each side
    is read where the forward u-ray parts from it; the backward v-ray from
    shift j reads iv from q - j.
    """
    p, q = len(u), len(v)
    horizon = p + q + 2
    if tables is None:
        tu = _scan_table(u, horizon)
        tables = tu, (tu if u == v else _scan_table(v, horizon))
    (_, uu, _), (opens, vv, iv) = tables
    cyc = order.cyc
    for s, a in enumerate(u):
        back = -u[s - 1]
        for j in opens.get(a, ()):
            # pinning: configurations where the backward u-ray runs along
            # the v-axis describe the same crossing shifted along the
            # common segment; count only the segment's start (this also
            # drops s == j when u == v, where the two axes coincide)
            if back == v[j] or back == -v[j - 1]:
                continue
            m = _agreement(uu, s, vv, j, horizon)
            k = _agreement(uu, s, iv, q - j, horizon)
            if (cyc(uu[s + m], vv[j + m], -uu[s + m - 1])
                    != cyc(uu[s + k], iv[q - j + k], -uu[s + k - 1])):
                yield s, j


def _linked_configurations(order, u, v):
    """Yield each pinned, linked configuration (s, j) of primitive u, v:
    those the _links table marks, where the forward u-ray leaves both
    v-rays at the base, then those of _shared_configurations."""
    links = order._links
    ids = _shift_ids(order, v)
    for s, i in enumerate(_shift_ids(order, u)):
        for j, bit in enumerate(ids):
            if links[i] >> bit & 1:
                yield s, j
    yield from _shared_configurations(order, u, v)


# ------------------------------------------------------------- public api


def geometric_intersection(surface, u, v) -> int:
    """Minimal number of transverse crossings between two unoriented classes.

    Accepts a surface (anything with a rose_order) and classes as
    CurveClass, letter tuples, or token strings.
    """
    order = surface.rose_order
    (ru, ku), (rv, kv) = (
        CurveClass.coerce(c, order.rank).root_and_power() for c in (u, v))
    return ku * kv * sum(
        1 for _ in _linked_configurations(order, ru.letters, rv.letters))


def self_intersection(surface, u) -> int:
    order = surface.rose_order
    root, k = CurveClass.coerce(u, order.rank).root_and_power()
    total = sum(1 for _ in _linked_configurations(order, root.letters, root.letters))
    if total % 2:
        raise InternalInvariantError("self-crossing configurations must pair up")
    return k * k * (total // 2) + (k - 1)


def is_simple(surface, u) -> bool:
    """True exactly when self_intersection(surface, u) == 0."""
    order = surface.rose_order
    return is_simple_word(order, CurveClass.coerce(u, order.rank).letters)


def is_simple_word(order, w, masks=None) -> bool:
    """is_simple for a cyclically reduced word w, read without a CurveClass.

    SI(r^k) = k^2 SI(r) + (k - 1) vanishes only for k = 1 and a root with
    no linked configuration with itself.  A cyclically reduced word is a
    proper power exactly when it is periodic, and the self scan is one
    AND of w's tripod masks, then the shared-letter configurations, which
    stop at the first linked one.  masks is (linked, present, primitive):
    w's tripod masks and whether it is aperiodic, computed here unless a
    caller that built w letter by letter passes what it already holds.
    """
    if masks is None:
        masks = (*_tripod_masks(order, w), _period(w) == len(w))
    linked, present, primitive = masks
    return (primitive and not linked & present
            and not any(_shared_configurations(order, w, w)))


def abelianized(word, rank: int) -> tuple:
    image = [0] * rank
    for l in word:
        image[abs(l) - 1] += 1 if l > 0 else -1
    return tuple(image)


def algebraic_intersection(surface, u, v) -> int:
    """Homological intersection pairing of two classes, sign included."""
    rank = surface.rose_order.rank
    a, b = (abelianized(CurveClass.coerce(c, rank).letters, rank) for c in (u, v))
    omega = surface.homological_pairing()
    return sum(x * sum(map(mul, row, b)) for x, row in zip(a, omega))


def disjoint_pairs(surface, classes) -> tuple:
    """Index pairs (a, b), a < b, whose classes have geometric intersection 0.

    Each class is reduced to its primitive root once, and the tripod masks
    and the _scan_table of each root are built once, for the horizon of
    the longest pair.  A pair is then decided by the two steps of
    is_simple_word: one AND of the masks, which finds a linked base
    configuration, and for the pairs it leaves, the shared-letter
    configurations of their roots, read off their tables, which stop at
    the first linked one.
    """
    order = surface.rose_order
    roots = [CurveClass.coerce(c, order.rank).root_and_power()[0].letters
             for c in classes]
    horizon = 2 * max(map(len, roots), default=0) + 2
    tables = [_scan_table(r, horizon) for r in roots]
    masks = [_tripod_masks(order, r) for r in roots]
    return tuple(
        (a, b)
        for a, (linked, _) in enumerate(masks)
        for b in range(a + 1, len(roots))
        if not linked & masks[b][1]
        and not any(_shared_configurations(order, roots[a], roots[b],
                                           (tables[a], tables[b])))
    )
