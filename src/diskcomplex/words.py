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
separate each other on the boundary circle.  Crossings of distinct
primitive classes u, v are therefore counted by the configurations
(s, j) in [0, p) x [0, q) that place both axes through a common base
vertex, keeping a configuration only when

  * the backward u-direction at the base leaves the v-axis there
    (pinning: this normalizes each crossing to the start of the common
    geodesic segment, so each double coset is counted once), and
  * the four rays F_u, B_u, F_v, B_v emanating from the base vertex
    alternate u, v, u, v in the circular order at infinity (linking).

Rays are compared letterwise to the horizon p + q + 2; by Fine and Wilf,
two distinct axes agreeing that far would be powers of a common word, so
hitting the horizon signals corrupted input and raises.  Orientation of a
triple of rays reduces to the rotation rho at the vertex where they part
company (orient3 below).  Self-intersections count ordered pairs s != j of
shifts of one primitive word; the involution swapping the two strands
pairs the configurations, so the pinned linked count is even and halves.

Non-primitive classes are handled by the power formulas: for primitive r,
distinct classes r^a, r^b have parallel axes and meet in 2ab SI(r) points,
and SI(r^k) = k^2 SI(r) + (k - 1).
"""

from __future__ import annotations

import re
from dataclasses import dataclass

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


def _key_seq(word):
    return tuple(letter_key(l) for l in word)


def _least_rotation(word: Word) -> Word:
    best = min(range(len(word)), key=lambda s: _key_seq(word[s:] + word[:s]))
    return word[best:] + word[:best]


def canonical_unoriented(letters) -> Word:
    """Least representative over rotations of the word and of its inverse."""
    w = cyclic_reduce(letters)
    if not w:
        raise TrivialWordError("word reduces to the identity")
    a = _least_rotation(w)
    b = _least_rotation(inverse(w))
    return a if _key_seq(a) <= _key_seq(b) else b


def shortlex_key(word):
    return (len(word), _key_seq(word))


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
    def from_letters(cls, letters, rank: int | None = None) -> "CurveClass":
        w = canonical_unoriented(letters)
        if rank is not None and any(abs(l) > rank for l in w):
            raise CurveError(f"letters exceed rank {rank}")
        return cls(w)

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
        n = len(w)
        for p in range(1, n + 1):
            if n % p == 0 and w == w[:p] * (n // p):
                # canonical: the rotations and inverse of r^k are those of
                # r raised to k, and x^k compares with y^k as x with y
                return CurveClass(w[:p]), n // p
        raise InternalInvariantError("every word has itself as a period")

    @property
    def is_primitive(self) -> bool:
        return self.root_and_power()[1] == 1


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
        object.__setattr__(self, "_pos", {l: i for i, l in enumerate(self.letters)})

    @property
    def rank(self) -> int:
        return len(self.letters) // 2

    def cyc(self, x: int, y: int, z: int) -> int:
        """+1 when the ccw arc from x to z passes y, else -1; x, y, z distinct."""
        pos = self._pos
        n = len(self.letters)
        ax = pos[x]
        return 1 if (pos[y] - ax) % n < (pos[z] - ax) % n else -1


# -------------------------------------------------- linked pair machinery


def _rays(word: Word, shift: int, horizon: int):
    p = len(word)
    fwd = tuple(word[(shift + t) % p] for t in range(horizon))
    back = tuple(-word[(shift - 1 - t) % p] for t in range(horizon))
    return fwd, back


def _divergence(a, b):
    for t in range(len(a)):
        if a[t] != b[t]:
            return t
    return None


def _orient3(order: CyclicOrder, r1, r2, r3) -> int:
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
    if d12 is None or d13 is None or d23 is None:
        raise InternalInvariantError("rays agree beyond the Fine-Wilf horizon")
    if d12 == d13 == d23:
        m = d12
        return order.cyc(r1[m], r2[m], r3[m])
    # in a tree the two smallest divergences coincide, so the max is unique
    m, i, j = max((d23, 2, 3), (d13, 1, 3), (d12, 1, 2))
    rays = {1: r1, 2: r2, 3: r3}
    direction = {i: rays[i][m], j: rays[j][m]}
    k = ({1, 2, 3} - {i, j}).pop()
    direction[k] = -rays[i][m - 1]
    return order.cyc(direction[1], direction[2], direction[3])


def _crossing_configurations(order, u, v, self_mode: bool) -> int:
    p, q = len(u), len(v)
    horizon = p + q + 2
    u_rays = [_rays(u, s, horizon) for s in range(p)]
    v_rays = u_rays if self_mode else [_rays(v, j, horizon) for j in range(q)]
    total = 0
    for s in range(p):
        fu, bu = u_rays[s]
        back = -u[(s - 1) % p]
        for j in range(q):
            if self_mode and s == j:
                continue
            # pinning: configurations where the backward u-ray runs along
            # the v-axis describe the same crossing shifted along the
            # common segment; count only the segment's start
            if back == v[j] or back == -v[(j - 1) % q]:
                continue
            fv, bv = v_rays[j]
            if _orient3(order, fu, fv, bu) != _orient3(order, fu, bv, bu):
                total += 1
    return total


def _self_primitive(order: CyclicOrder, u: Word) -> int:
    total = _crossing_configurations(order, u, u, self_mode=True)
    if total % 2:
        raise InternalInvariantError("self-crossing configurations must pair up")
    return total // 2


def _order_of(surface_or_order) -> CyclicOrder:
    if isinstance(surface_or_order, CyclicOrder):
        return surface_or_order
    return surface_or_order.rose_order


# ------------------------------------------------------------- public api


def geometric_intersection(surface, u, v) -> int:
    """Minimal number of transverse crossings between two unoriented classes.

    Accepts a chain surface or a bare CyclicOrder, and classes as
    CurveClass, letter tuples, or token strings.
    """
    order = _order_of(surface)
    cu = CurveClass.coerce(u, order.rank)
    cv = CurveClass.coerce(v, order.rank)
    ru, ku = cu.root_and_power()
    rv, kv = cv.root_and_power()
    if ru == rv:
        # parallel axes; all crossings come from distinct lifts
        return 2 * ku * kv * _self_primitive(order, ru.letters)
    return ku * kv * _crossing_configurations(
        order, ru.letters, rv.letters, self_mode=False
    )


def self_intersection(surface, u) -> int:
    order = _order_of(surface)
    root, k = CurveClass.coerce(u, order.rank).root_and_power()
    return k * k * _self_primitive(order, root.letters) + (k - 1)


def is_essential(surface, u) -> bool:
    """True unless the class is trivial or the boundary (peripheral) class."""
    try:
        c = CurveClass.coerce(u)
    except TrivialWordError:
        return False
    return c != surface.boundary_class


def abelianized(word, rank: int) -> tuple:
    image = [0] * rank
    for l in word:
        image[abs(l) - 1] += 1 if l > 0 else -1
    return tuple(image)


def algebraic_intersection(surface, u, v) -> int:
    """Homological intersection pairing of two classes, sign included."""
    omega = surface.homological_pairing()
    rank = len(omega)
    a = abelianized(CurveClass.coerce(u, rank).letters, rank)
    b = abelianized(CurveClass.coerce(v, rank).letters, rank)
    return sum(a[i] * omega[i][j] * b[j] for i in range(rank) for j in range(rank))
