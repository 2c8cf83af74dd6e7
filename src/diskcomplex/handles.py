"""Disk-bounding predicates for the two handlebody sides.

For the standardly embedded chain surface, each side is a handlebody
determined by which chain circles bound meridian disks there: side O
takes the odd-index circles, side E the even ones.  On the level of the
free fundamental group, filling side-X disks kills its generators, so a
class bounds a disk on side X exactly when deleting the killed letters
from (a cyclic representative of) its word leaves nothing after free and
cyclic reduction.

The predicates below are stated for simple essential classes only; by
Dehn's lemma the algebraic condition then certifies an embedded
compressing disk.  Non-simple or peripheral input is a caller error for
bounds_disk_sides and simply "not a vertex" for is_disk_vertex.
"""

from __future__ import annotations

from enum import Enum

from .errors import CurveError, TrivialWordError
from .words import CurveClass, cyclic_reduce, is_essential, self_intersection


class Side(Enum):
    O = "O"  # odd chain circles bound meridians here
    E = "E"

    @property
    def killed_parity(self) -> int:
        return 1 if self is Side.O else 0


def kill_word(word, side: Side) -> tuple:
    """Image of a word under filling one side's meridian disks."""
    survivors = tuple(l for l in word if abs(l) % 2 != side.killed_parity)
    return cyclic_reduce(survivors)


def dies_on(word, side: Side) -> bool:
    return not kill_word(word, side)


def bounds_disk_sides(surface, curve) -> frozenset:
    """Subset of {O, E} on which a simple essential class bounds a disk.

    Raises CurveError on peripheral or non-simple input; those classes
    have no embedded-disk reading.
    """
    c = CurveClass.coerce(curve, 2 * surface.genus)
    if not is_essential(surface, c):
        raise CurveError("peripheral class: isotopic to the boundary")
    si = self_intersection(surface, c)
    if si != 0:
        raise CurveError(f"class is not simple (self-intersection {si})")
    return frozenset(side for side in Side if dies_on(c.letters, side))


def is_disk_vertex(surface, curve) -> bool:
    """True when the class is simple, essential, and bounds on some side.

    The linear side test runs first, so the costlier self-intersection
    count only runs on classes that die on a side.
    """
    try:
        c = CurveClass.coerce(curve, 2 * surface.genus)
    except (CurveError, TrivialWordError):
        return False
    return (
        any(dies_on(c.letters, side) for side in Side)
        and is_essential(surface, c)
        and self_intersection(surface, c) == 0
    )
