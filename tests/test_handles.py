"""Disk-bounding predicates for the two handlebody sides."""

from diskcomplex import CurveClass, Side, bounds_disk_sides, dies_on, kill_word


class TestKillWord:
    def test_side_o_kills_odd_generators(self):
        assert kill_word((1, 2, -3, 4), Side.O) == (2, 4)
        assert kill_word((1, 3), Side.O) == ()

    def test_side_e_kills_even_generators(self):
        assert kill_word((1, 2, -3, 4), Side.E) == (1, -3)

    def test_killing_can_expose_cancellation(self):
        # after erasing g2 the word g1 g2 -g1 collapses entirely
        assert kill_word((1, 2, -1), Side.O) == (2,)
        assert kill_word((1, 2, -1), Side.E) == ()

    def test_dies_on(self):
        assert dies_on((1, 2, -1, -2), Side.O)
        assert dies_on((1, 2, -1, -2), Side.E)
        assert not dies_on((1, 2), Side.O)


class TestBoundsDiskSides:
    def test_core_parities(self, chain2):
        for i, want in ((1, {Side.O}), (2, {Side.E}), (3, {Side.O}),
                        (4, {Side.E})):
            c = CurveClass.from_letters((i,))
            assert bounds_disk_sides(chain2, c) == frozenset(want)

    def test_even_interval_curves_die_on_both_sides(self, chain2):
        both = frozenset((Side.O, Side.E))
        for w in ((1, 2, -1, -2), (2, 3, -2, -3), (3, 4, -3, -4)):
            assert bounds_disk_sides(chain2, CurveClass.from_letters(w)) == both

    def test_odd_interval_curves_die_on_one_side(self, chain2):
        assert bounds_disk_sides(chain2, CurveClass.from_letters((1, -3))) == {
            Side.O
        }
        assert bounds_disk_sides(chain2, CurveClass.from_letters((2, -4))) == {
            Side.E
        }

    def test_peripheral_class_rejected(self, chain2):
        # the boundary dies on both sides but bounds no embedded disk
        assert bounds_disk_sides(chain2, chain2.boundary_class) == frozenset()

    def test_nonsimple_class_rejected(self, chain2):
        # g1 g1 dies on side O but is not simple
        c = CurveClass.from_letters((1, 1))
        assert bounds_disk_sides(chain2, c) == frozenset()

    def test_simple_nonseparating_class_may_die_nowhere(self, chain2):
        # g1 g2 is simple yet survives both killings
        c = CurveClass.from_letters((1, 2))
        assert bounds_disk_sides(chain2, c) == frozenset()


class TestIsDiskVertex:
    def test_accepts_disk_bounders(self, chain2):
        for w in ((1,), (2,), (1, -3), (1, 2, -1, -2)):
            assert bounds_disk_sides(chain2, CurveClass.from_letters(w))

    def test_rejects_survivors_peripherals_and_nonsimple(self, chain2):
        assert not bounds_disk_sides(chain2, CurveClass.from_letters((1, 2)))
        assert not bounds_disk_sides(chain2, chain2.boundary_class)
        assert not bounds_disk_sides(chain2, CurveClass.from_letters((1, 1)))
