"""Disk-bounding predicates for the two handlebody sides.

For the standardly embedded chain surface, each side is a handlebody
determined by which chain circles bound meridian disks there: side O
takes the odd-index circles, side E the even ones.  On the level of the
free fundamental group, filling side-X disks kills its generators, so a
class bounds a disk on side X exactly when deleting the killed letters
from (a cyclic representative of) its word leaves nothing after free and
cyclic reduction.

A class is a disk vertex when it is simple, essential, and dies on some
side; by Dehn's lemma the algebraic condition then certifies an embedded
compressing disk.  bounds_disk_sides is the one test for this: it
returns the sides for a disk vertex and the empty set for every other
class, peripheral and non-simple ones included.  Simplicity is decided
by words.is_simple, which stops at the first self-crossing it finds;
the exact count self_intersection is not needed for a yes-or-no answer.
"""

from __future__ import annotations

from enum import Enum

from .words import CurveClass, cyclic_reduce, is_essential, is_simple


class Side(Enum):
    O = "O"  # odd chain circles bound meridians here
    E = "E"

    @property
    def killed_parity(self) -> int:
        return 1 if self is Side.O else 0


def kill_word(word, side: Side) -> tuple:
    """Image of a word under filling one side's meridian disks."""
    killed = side.killed_parity
    survivors = tuple(l for l in word if abs(l) % 2 != killed)
    return cyclic_reduce(survivors)


def dies_on(word, side: Side) -> bool:
    return not kill_word(word, side)


def bounds_disk_sides(surface, curve) -> frozenset:
    """Sides on which the class bounds a disk; empty unless a disk vertex.

    The linear side test runs first, so the costlier simplicity test only
    runs on classes that die on a side, and it stops at the first linked
    configuration of the class's root with itself.
    """
    c = CurveClass.coerce(curve, 2 * surface.genus)
    sides = frozenset(side for side in Side if dies_on(c.letters, side))
    if sides and is_essential(surface, c) and is_simple(surface, c):
        return sides
    return frozenset()
