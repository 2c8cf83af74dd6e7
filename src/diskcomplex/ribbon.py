"""Ribbon graphs and the chain model of a genus-g surface with one
boundary component.

A ribbon graph (fatgraph) is a finite dart set with a fixed-point-free
involution rev pairing the two darts of each edge and a permutation rot
whose cycles list the darts counterclockwise around each vertex.
Fattening vertices to disks and edges to bands produces a compact
oriented surface; its boundary circles are the orbits of the face
permutation d -> rot_next(rev(d)), and the genus comes from
chi = V - E = 2 - 2 genus - boundary_count.

Chain model.  Place vertices p_1, ..., p_{2g-1} on a line.  Circle 1 is a
loop (a single chord edge c_1) at p_1, circle 2g a loop c_{2g} at
p_{2g-1}, and circle i in between runs as a parallel pair of edges from
p_{i-1} to p_i: a tree edge f_i and a chord c_i.  At each vertex the four
darts alternate between the two circles meeting there, which realizes the
transverse chain pattern i(z_i, z_{i+1}) = 1.  Fattening gives the
surface of genus g with one boundary circle.

Contracting the tree path f_2 ... f_{2g-1} collapses the graph to a rose
whose 2g chord loops generate the fundamental group freely; the rotation
at the single vertex is the cyclic order fed to the intersection engine.
Chord darts carry letters (+i for the dart leaving along c_i in the core
orientation, -i for its partner), tree darts carry 0 and are silent when
reading words off walks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import BudgetError, DomainError, HypothesisError, InternalInvariantError
from .words import CurveClass, CyclicOrder, cyclic_reduce

# The rose's CyclicOrder keeps a link table of (4g)^2 masks of (4g)^2
# bits, 32 g^4 bytes, built in time of that order: 200 MB at g = 50, and
# g = 200 would need 51 GB.  This limit refuses g >= 27 before any ribbon
# work.  It admits g = 26, a 14.6 MB table (chain_surface(26) takes
# 0.04-0.06 s and a 30 MB process peak on a 2-CPU host), far above every
# genus in use (g = 7 needs 77 KB).
MAX_LINK_TABLE_BYTES = 2**24


def normalize_walk(walk) -> tuple:
    """Rotate a closed walk so the smallest dart comes first."""
    walk = tuple(walk)
    k = walk.index(min(walk))
    return walk[k:] + walk[:k]


@dataclass(frozen=True)
class RibbonGraph:
    rot: tuple  # tuple of vertex dart cycles, each a tuple, ccw
    rev: tuple  # tuple of (dart, dart) edge pairs

    def __post_init__(self):
        darts = [d for cycle in self.rot for d in cycle]
        if len(darts) != len(set(darts)):
            raise DomainError("a dart may sit at only one vertex")
        dart_set = set(darts)
        rev_map = {}
        for a, b in self.rev:
            if a == b:
                raise DomainError("rev must be fixed-point free")
            if a in rev_map or b in rev_map:
                raise DomainError("rev must be an involution")
            rev_map[a] = b
            rev_map[b] = a
        if set(rev_map) != dart_set:
            raise DomainError("rev must pair exactly the darts of rot")
        nxt = {}
        vertex_of = {}
        for idx, cycle in enumerate(self.rot):
            if not cycle:
                raise DomainError("empty vertex cycle")
            for k, d in enumerate(cycle):
                nxt[d] = cycle[(k + 1) % len(cycle)]
                vertex_of[d] = idx
        object.__setattr__(self, "_rev", rev_map)
        object.__setattr__(self, "_next", nxt)
        object.__setattr__(self, "_vertex_of", vertex_of)

    # ------------------------------------------------------------ basics

    @property
    def darts(self) -> frozenset:
        return frozenset(self._rev)

    @property
    def n_vertices(self) -> int:
        return len(self.rot)

    @property
    def n_edges(self) -> int:
        return len(self.rev)

    @property
    def euler_characteristic(self) -> int:
        return self.n_vertices - self.n_edges

    def reverse_of(self, dart: int) -> int:
        return self._rev[dart]

    # ------------------------------------------------------------- faces

    def boundary_walks(self) -> list:
        """Orbits of d -> rot_next(rev(d)), one per boundary circle."""
        rev = self._rev
        nxt = self._next
        seen = set()
        walks = []
        for d0 in sorted(rev):
            if d0 in seen:
                continue
            walk = []
            d = d0
            while True:
                walk.append(d)
                seen.add(d)
                d = nxt[rev[d]]
                if d == d0:
                    break
            walks.append(normalize_walk(walk))
        return sorted(walks)

    @property
    def n_boundaries(self) -> int:
        return len(self.boundary_walks())

    @property
    def genus(self) -> int:
        two_g = 2 - self.euler_characteristic - self.n_boundaries
        if two_g < 0 or two_g % 2:
            raise InternalInvariantError("2 - chi - b must be an even nonneg int")
        return two_g // 2

    # ------------------------------------------------------------ surgery

    def subgraph(self, darts) -> "RibbonGraph":
        """Induced sub-ribbon graph; rotation orders are inherited."""
        keep = set(darts)
        for d in keep:
            if self._rev.get(d) not in keep:
                raise DomainError("subgraph darts must be closed under rev")
        rot = tuple(
            tuple(d for d in cycle if d in keep)
            for cycle in self.rot
            if any(d in keep for d in cycle)
        )
        rev = tuple(p for p in self.rev if p[0] in keep)
        return RibbonGraph(rot, rev)

    def with_edge_contracted(self, dart: int) -> "RibbonGraph":
        """Contract the edge through dart; splices the two vertex cycles."""
        other = self._rev[dart]
        va, vb = self._vertex_of[dart], self._vertex_of[other]
        if va == vb:
            raise DomainError("cannot contract a loop")
        cyc_a, cyc_b = self.rot[va], self.rot[vb]
        kb = cyc_b.index(other)
        tail = cyc_b[kb + 1 :] + cyc_b[:kb]  # b's cycle from after the dart
        ka = cyc_a.index(dart)
        merged = cyc_a[:ka] + tail + cyc_a[ka + 1 :]
        rot = tuple(
            merged if i == va else c for i, c in enumerate(self.rot) if i != vb
        )
        rev = tuple(p for p in self.rev if dart not in p)
        return RibbonGraph(rot, rev)

    def components(self) -> list:
        parent = list(range(len(self.rot)))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for a, b in self.rev:
            ra, rb = find(self._vertex_of[a]), find(self._vertex_of[b])
            if ra != rb:
                parent[ra] = rb
        groups = {}
        for idx, cycle in enumerate(self.rot):
            groups.setdefault(find(idx), []).append(cycle)
        out = []
        for root in sorted(groups, key=lambda r: min(min(c) for c in groups[r])):
            cycles = groups[root]
            keep = {d for c in cycles for d in c}
            rev = tuple(p for p in self.rev if p[0] in keep)
            out.append(RibbonGraph(tuple(cycles), rev))
        return out


# ----------------------------------------------------------- chain model


@dataclass(frozen=True, eq=False)
class ChainSurface:
    """The fattened chain of 2g circles, with its word-reading apparatus."""

    genus: int
    graph: RibbonGraph
    letters: dict = field(repr=False)  # dart -> letter, 0 on tree darts
    labels: dict = field(repr=False)  # dart -> readable name
    core_walks: tuple  # circle index i-1 -> closed walk of circle i
    boundary_walk: tuple
    boundary_word: tuple
    boundary_class: CurveClass
    rose_order: CyclicOrder

    @property
    def n_circles(self) -> int:
        return 2 * self.genus

    def circle_darts(self, i: int) -> frozenset:
        """Darts of circle i: its chord, plus its tree edge when it has one."""
        if not 1 <= i <= self.n_circles:
            raise DomainError(f"circle index {i} out of range")
        walk = self.core_walks[i - 1]
        darts = set()
        for d in walk:
            darts.add(d)
            darts.add(self.graph.reverse_of(d))
        return frozenset(darts)

    def interval_darts(self, j: int, m: int) -> frozenset:
        out = set()
        for i in range(j, m + 1):
            out |= self.circle_darts(i)
        return frozenset(out)

    def walk_word(self, walk) -> tuple:
        """Cyclically reduced letters read along a closed walk; may be empty."""
        return cyclic_reduce(tuple(l for l in (self.letters[d] for d in walk) if l))

    def walk_class(self, walk) -> CurveClass:
        return CurveClass.from_letters(self.walk_word(walk))

    def core_class(self, i: int) -> CurveClass:
        return self.walk_class(self.core_walks[i - 1])

    def homological_pairing(self) -> tuple:
        """Intersection form on H_1 in the chord basis.

        Consecutive core circles cross once, positively in the order fixed
        by the vertex rotations; transporting that sign through the signs
        of the core words gives the pairing of the basis classes.
        """
        sigma = []
        for walk in self.core_walks:
            w = self.walk_word(walk)
            if len(w) != 1:
                raise InternalInvariantError("core words are single letters")
            sigma.append(1 if w[0] > 0 else -1)
        n = len(sigma)
        omega = [[0] * n for _ in range(n)]
        for a in range(n - 1):
            omega[a][a + 1] = sigma[a] * sigma[a + 1]
            omega[a + 1][a] = -omega[a][a + 1]
        return tuple(tuple(row) for row in omega)


def chain_surface(genus: int) -> ChainSurface:
    """Build the standard chain surface of the given genus (>= 2)."""
    if not isinstance(genus, int) or genus < 2:
        raise HypothesisError("the chain model needs integer genus >= 2")
    if (table := (4 * genus) ** 4 // 8) > MAX_LINK_TABLE_BYTES:
        raise BudgetError(
            f"genus {genus} needs a {table}-byte link table, above the "
            f"limit of {MAX_LINK_TABLE_BYTES} bytes")
    n = 2 * genus
    ids: dict = {}

    def dart(name: str) -> int:
        return ids.setdefault(name, len(ids))

    rev = []
    for i in range(1, n + 1):
        rev.append((dart(f"c{i}+"), dart(f"c{i}-")))
        if 2 <= i <= n - 1:
            rev.append((dart(f"f{i}+"), dart(f"f{i}-")))

    rot = []
    for t in range(1, n):  # vertex p_t joins circles t and t+1
        if t == 1:
            low_in, low_out = dart("c1-"), dart("c1+")
        else:
            low_in, low_out = dart(f"f{t}-"), dart(f"c{t}-")
        if t + 1 == n:
            high_in, high_out = dart(f"c{n}-"), dart(f"c{n}+")
        else:
            high_in, high_out = dart(f"c{t+1}+"), dart(f"f{t+1}+")
        # the two circles alternate around the vertex: transverse crossing
        rot.append((low_in, high_in, low_out, high_out))

    graph = RibbonGraph(tuple(rot), tuple(rev))

    letters = {}
    labels = {}
    for name, d in ids.items():
        labels[d] = name
        if name.startswith("c"):
            letters[d] = int(name[1:-1]) * (1 if name.endswith("+") else -1)
        else:
            letters[d] = 0

    core_walks = []
    for i in range(1, n + 1):
        if i == 1 or i == n:
            core_walks.append((ids[f"c{i}+"],))
        else:
            core_walks.append((ids[f"f{i}+"], ids[f"c{i}-"]))

    walks = graph.boundary_walks()
    if len(walks) != 1:
        raise InternalInvariantError("chain fattening must have one boundary")
    if graph.genus != genus:
        raise InternalInvariantError("chain fattening has the wrong genus")
    boundary_walk = walks[0]

    rose = graph
    for i in range(2, n):
        rose = rose.with_edge_contracted(ids[f"f{i}+"])
    if rose.n_vertices != 1:
        raise InternalInvariantError("tree contraction must leave one vertex")
    order_letters = tuple(letters[d] for d in rose.rot[0])
    if 0 in order_letters:
        raise InternalInvariantError("tree darts survived contraction")

    boundary_word = cyclic_reduce(
        tuple(l for l in (letters[d] for d in boundary_walk) if l)
    )
    return ChainSurface(
        genus=genus,
        graph=graph,
        letters=letters,
        labels=labels,
        core_walks=tuple(core_walks),
        boundary_walk=boundary_walk,
        boundary_word=boundary_word,
        boundary_class=CurveClass.from_letters(boundary_word),
        rose_order=CyclicOrder(order_letters),
    )
