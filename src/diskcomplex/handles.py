"""Disk vertices: the classes that bound a disk on a handlebody side.

For the standardly embedded chain surface, each side is a handlebody
determined by which chain circles bound meridian disks there: side O
takes the odd-index circles, side E the even ones.  On the level of the
free fundamental group, filling side-X disks kills its generators, so a
class bounds a disk on side X exactly when deleting the killed letters
from (a cyclic representative of) its word leaves nothing after free and
cyclic reduction.  Side.kills is the one statement of that rule.

A class is a disk vertex when it is simple, essential (a CurveClass is
never trivial, so: not the boundary class), and dies on some side; by
Dehn's lemma the algebraic condition then certifies an embedded
compressing disk.  bounds_disk_sides tests one class: it returns the
sides for a disk vertex and the empty set for every other class.
disk_vertices lists the disk vertices up to a word length with their
sides, from one recursive class search that reaches each class dying on
a side once, by its canonical word, and gates it there.  Both apply one
gate to a class's canonical letters (not the boundary word, and
words.is_simple_word: not a proper power, no self-link), and
disk_vertices builds a CurveClass only for the classes that pass it.

The search also drops every prefix that is already self-linked.  Shift
s >= 1 of a word depends only on its letters s - 1 and s, so it is the
same shift in every word that starts with a prefix longer than s, and
every class below a prefix in the search starts with it.  A word whose
shifts' words.link_table rows meet their bits is not simple, so once
that holds for the shifts 1..n-1 of a prefix of n letters, no class
below it passes the gate.  At (3,5) the gate then runs on 883 classes,
not on all 2,047 that die on a side.
"""

from __future__ import annotations

from enum import Enum

from .errors import BudgetError
from .words import (CurveClass, cyclic_reduce, is_simple_word, key_letter,
                    link_table, shift_id)

# The class search recurses one frame per letter of its prefix, and Python
# stops at 1000 nested frames by default; this leaves half of them to the
# caller.
MAX_CLASS_LENGTH = 500


class Side(Enum):
    O = "O"  # odd chain circles bound meridians here
    E = "E"

    @property
    def killed_parity(self) -> int:
        return 1 if self is Side.O else 0

    def kills(self, letter: int) -> bool:
        return abs(letter) % 2 == self.killed_parity


def kill_word(word, side: Side) -> tuple:
    """Image of a word under filling one side's meridian disks."""
    return cyclic_reduce(tuple(l for l in word if not side.kills(l)))


def dies_on(word, side: Side) -> bool:
    return not kill_word(word, side)


def _is_disk_word(surface, letters, masks=None) -> bool:
    """The disk-vertex gate on the canonical letters of a class; masks as
    words.is_simple_word takes them."""
    return (letters != surface.boundary_class.letters
            and is_simple_word(surface.rose_order, letters, masks))


def bounds_disk_sides(surface, curve) -> frozenset:
    """Sides on which the class bounds a disk; empty unless a disk vertex.

    The linear side test runs first, so the simplicity gate only sees
    classes that die on a side.
    """
    c = CurveClass.coerce(curve, 2 * surface.genus)
    sides = frozenset(side for side in Side if dies_on(c.letters, side))
    if sides and _is_disk_word(surface, c.letters):
        return sides
    return frozenset()


def disk_vertices(surface, max_len: int) -> list:
    """(CurveClass, sides) for each disk vertex of word length 1..max_len.

    The search is depth first over prenecklaces (Fredricksen-Kessler-
    Maiorana, in the form of Cattell, Ruskey, Sawada, Serra and Miers,
    J. Algorithms 2000) in the letter_key alphabet 0..4g-1, where the
    inverse of key x is x ^ 1 and no key is placed after its inverse.  A
    prefix a[1..n] whose longest Lyndon prefix has length p is its own
    least rotation exactly when p divides n; it is the canonical word of
    its class when, in addition, its last key does not cancel its first
    (it is cyclically reduced) and no rotation of its inverse is smaller.
    Each class that dies on a side is gated at its canonical word.

    Each side keeps a stack of the prefix's letters it does not kill,
    freely reduced.  A suffix of k letters cancels at most k survivors, so
    once both stacks are longer than the max_len - n letters still
    allowed, the prefix is pruned.  A letter moves only its own side's
    stack, by one, so a side's letters are all tried while the other
    stack, or this one grown by one, is within the letters left, and
    otherwise only the one that cancels the top of this stack.  A last
    letter is placed only when the word it ends passes the necklace and
    cyclic reduction tests.  A freely reduced word is empty after cyclic
    reduction exactly when it is empty, so a class dies on exactly the
    sides whose stacks are empty.

    Each call also carries the OR of the link_table rows and the OR of
    the bits of the shifts 1..n-1 of its prefix, as words._tripod_masks
    would read them, one OR each per appended letter, read off a table
    of each shift's row and bit built once per call.  A letter whose shift
    makes the two meet is not placed: every class below would fail
    is_simple_word, so neither the prefix nor any class below it is gated.
    Shift 0 wraps around the word, from its last letter to its first, so
    only the gate, at the whole word, reads it: the gate gets the carried
    masks with shift 0 added, and p == n, which says the necklace is not a
    power of its Lyndon prefix, so it computes none of them again.  The
    table never marks a shift against itself (b = a there), so the powers
    g1, g1^2, ... are never dropped.

    A max_len above MAX_CLASS_LENGTH raises BudgetError at the call.
    """
    if max_len > MAX_CLASS_LENGTH:
        raise BudgetError(
            f"the class search reaches words of at most {MAX_CLASS_LENGTH} "
            f"letters, not {max_len}; lower the budget")
    a = [0] * (max_len + 1)  # a[0] = 0 starts the recursion with p = 1
    survivors = ([], [])  # freely reduced survivors, by Side.killed_parity
    keys = range(4 * surface.genus)
    own = [side.killed_parity for x in keys
           for side in Side if not side.kills(key_letter(x))]
    links = link_table(surface.rose_order)
    # step[back][x]: the link_table row and the bit of the shift (x, back)
    step = [[(links[i], 1 << i) for i in (shift_id(len(keys), x, back)
                                          for x in keys)] for back in keys]
    found = []

    def extend(t, p, rows, bits):
        n = t - 1
        if (n and n % p == 0 and a[n] ^ 1 != a[1]
                and not (survivors[0] and survivors[1])):
            word = tuple(a[1:t])
            inv = tuple(x ^ 1 for x in reversed(word)) * 2
            if all(word <= inv[s:s + n] for s in range(n)):
                letters = tuple(map(key_letter, word))
                row, bit = step[a[n] ^ 1][a[1]]
                if _is_disk_word(surface, letters,
                                 (rows | row, bits | bit, p == n)):
                    sides = frozenset(side for side in Side
                                      if not survivors[side.killed_parity])
                    found.append((CurveClass.from_canonical(letters), sides))
        if n == max_len:
            return
        rest = max_len - t
        back = a[n] ^ 1
        # keep[k]: every letter of side k can still finish; else only tops[k]
        keep = [len(survivors[1]) <= rest or len(survivors[0]) < rest,
                len(survivors[0]) <= rest or len(survivors[1]) < rest]
        tops = [s[-1] ^ 1 if s and len(s) <= rest + 1 else -1
                for s in survivors]
        for x in range(a[t - p], len(keys)):
            k = own[x]
            if not keep[k] and x != tops[k]:
                continue
            r = b = 0  # shift 0 waits for the gate
            if n:
                if x == back:
                    continue
                row, bit = step[back][x]
                r, b = rows | row, bits | bit
                if r & b:
                    continue  # shifts 1..n of every class below self-link
            a[t] = x
            q = p if x == a[t - p] else t
            if t == max_len and (t % q or x ^ 1 == a[1]):
                continue  # a leaf that is no canonical word
            stack = survivors[k]
            cancels = bool(stack) and stack[-1] == x ^ 1
            if cancels:
                stack.pop()
            else:
                stack.append(x)
            extend(t + 1, q, r, b)
            if cancels:
                stack.append(x ^ 1)
            else:
                stack.pop()

    extend(1, 1, 0, 0)
    return found
