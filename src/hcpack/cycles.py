"""Hamiltonian cycles, packings, crossing accounting, and the boundary-edge
structure predicates.

The structure predicates read a cycle on one ring: convex indices, or a
wheel's rim positions (`_rim_edges`).  They share one boundary test
(`geometry.ring_boundary`) and one diagonal-side rule (`_sides_hold`).

On a ring, `verify_packing` sweeps each rotation class once: cycles whose
ring positions, turned to put the first rim vertex at 0, are equal.  This
is exact, not a heuristic: convex crossings are decided by index
interleaving and a wheel's by position differences mod its odd rim size,
and both are unchanged by a turn of the rim.  The closed-form packings are
two zigzag shapes turned round the rim, so they cost two sweeps.

A `geometry.CoordinateOracle` holds points that passed
`geometry.general_set`, so the lane-packed crossing pass over its
coordinates reads a zero side value as a shared vertex and keeps no
fallback."""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from operator import lshift, mul
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from .errors import ConfigMismatch
from .geometry import (
    Config, CoordinateOracle, CrossingOracle, Edge, RingOracle, check_edge, edge, ring_boundary,
    short_arc, wheel_relabeling,
)


@dataclass(frozen=True)
class HamCycle:
    """Cyclic vertex-index sequence; equality is on the listed order."""

    order: Tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "order", tuple(self.order))
        if len(self.order) < 3:
            raise ValueError("a cycle needs at least 3 vertices")
        if len(set(self.order)) != len(self.order):
            raise ValueError("repeated vertex in cycle")

    def __len__(self):
        return len(self.order)

    def edges(self) -> Tuple[Edge, ...]:
        """Canonical pairs `(a, b)`, `a < b`, in cycle order; the vertices
        are distinct, so `geometry.edge` need not check them."""
        o = self.order
        return tuple((a, b) if a < b else (b, a) for a, b in zip(o, o[1:] + o[:1]))

    def canonical(self) -> "HamCycle":
        """Rotate the smallest vertex first, direction by smaller second."""
        n = len(self.order)
        k = self.order.index(min(self.order))
        fwd = tuple(self.order[(k + i) % n] for i in range(n))
        rev = tuple(self.order[(k - i) % n] for i in range(n))
        return HamCycle(fwd if fwd[1] <= rev[1] else rev)


@dataclass(frozen=True)
class Packing:
    """Ordered, pairwise edge-disjoint cycles over one point set."""

    cycles: Tuple[HamCycle, ...]

    def __post_init__(self):
        object.__setattr__(self, "cycles", tuple(self.cycles))

    def __len__(self):
        return len(self.cycles)

    def edge_union(self) -> set[Edge]:
        out: set[Edge] = set()
        for c in self.cycles:
            out |= set(c.edges())
        return out


@dataclass
class CrossReport:
    counts: Dict[Edge, int]
    pairs: List[Tuple[Edge, Edge]] = field(default_factory=list)
    max_count: int = field(init=False)

    def __post_init__(self):
        self.max_count = max(self.counts.values()) if self.counts else 0


def verify_hamiltonian(c: HamCycle, n: int) -> bool:
    return sorted(c.order) == list(range(n))


def crossing_report(
    c: Union[HamCycle, Sequence[Edge]], oracle: CrossingOracle
) -> CrossReport:
    """Per-edge count of the other edges properly crossing it, plus the
    crossing pairs, for a cycle or any list of distinct edges.

    A `RingOracle` (convex and wheel sets) is answered by one sweep around
    the ring in O(E log E + K) for K crossing pairs.  Any other oracle is
    asked about every pair of edges that share no vertex, in
    `is_one_plane`'s order (`_crossing_pairs`): each edge j against the
    edges i < j before it, j and then i ascending; a `CoordinateOracle`
    (general sets) decides the same pairs in one lane-packed pass, with one
    evaluation per vertex and one per edge, and is never called.  The
    sweep, the lane pass and a `CoordinateOracle` raise ValueError on an
    edge that is not two distinct vertices of the set
    (`geometry.check_edge`).  Every path gives the pairs in edge-list
    order.
    """
    es = c.edges() if isinstance(c, HamCycle) else tuple(c)
    counts = {e: 0 for e in es}
    if isinstance(oracle, RingOracle):
        found = _ring_crossings(es, oracle)
    else:
        found = sorted(_crossing_pairs(es, oracle))
    pairs = [(es[i], es[j]) for i, j in found]
    for e1, e2 in pairs:
        counts[e1] += 1
        counts[e2] += 1
    return CrossReport(counts, pairs)


def _crossing_pairs(es: Sequence[Edge], oracle: CrossingOracle) -> Iterator[Tuple[int, int]]:
    """Index pairs (i, j), i < j, of the edges of `es` that cross: by j
    ascending, then i ascending, asking `oracle(es[j], es[i])` about each
    pair that shares no vertex.

    A `CoordinateOracle` gets one lane-packed pass instead of a call per
    pair (`_coordinate_pairs`).  Any other oracle, a wrapped
    `CoordinateOracle` included, is called once per pair.
    """
    if isinstance(oracle, CoordinateOracle):
        return _coordinate_pairs(es, oracle.xs, oracle.ys)
    return _generic_pairs(es, oracle)


def _generic_pairs(es: Sequence[Edge], oracle: CrossingOracle) -> Iterator[Tuple[int, int]]:
    for j, e in enumerate(es):
        a, b = e
        for i in range(j):
            f = es[i]
            if a in f or b in f:
                continue
            if oracle(e, f):
                yield i, j


def _coordinate_pairs(
    es: Sequence[Edge], xs: Sequence[int], ys: Sequence[int]
) -> Iterator[Tuple[int, int]]:
    """`_crossing_pairs` for a `CoordinateOracle` with coordinates `xs`
    and `ys`, whose points are in general position, in lane-packed side
    tests.  It imports nothing from the packer: the verifier shares no
    kernel with what it checks.

    Every edge is checked with `check_edge` before any lane is built.
    Edge i then owns lane i, of `width` = 2 * bitlen(M) + 5 bits for M the
    largest |coordinate| among the ends, in seven packed integers: its
    line `(ux, uy, k)`, on which a point p lies on the side
    `ux * p.y - uy * p.x - k`, and the coordinates of its two ends.  Every
    lane of an evaluation holds a side value of three of the points, which
    lies strictly inside +-bias, bias = 2^(width-1) - 1: in `bias + D` and
    `bias - D` each lane holds a value in [0, 2^width), so no carry or
    borrow crosses a lane for any integer input, and a lane's top bit is
    set exactly when its value is > 0, or < 0 respectively.

    Each distinct vertex gets one evaluation over all lines, giving its
    masks of the lines it lies strictly left and strictly right of, kept
    for the call.  The lines that separate the ends a, b of edge j are the
    lanes of `left[a] & right[b] | right[a] & left[b]`.  None of them is
    the line of an edge at a or b, which holds that vertex, so in general
    position the ends of such an edge lie off j's line.  Below lane j
    those lanes are tested with one evaluation of j's line over both
    packed ends: a lane whose two top bits of `bias + D` differ has its
    ends on opposite sides, and is a crossing.  So the pass gives the
    generic scan's pairs in its order, j and then i ascending, and never
    calls the oracle.
    """
    n = len(xs)
    for a, b in es:
        check_edge(a, b, n)
    if not es:
        return
    first, second = zip(*es)
    ax, ay = list(map(xs.__getitem__, first)), list(map(ys.__getitem__, first))
    bx, by = list(map(xs.__getitem__, second)), list(map(ys.__getitem__, second))
    ends = ax + ay + bx + by
    width = 2 * max(max(ends), -min(ends)).bit_length() + 5
    shifts = range(0, width * len(es), width)
    px, py = sum(map(lshift, ax, shifts)), sum(map(lshift, ay, shifts))
    qx, qy = sum(map(lshift, bx, shifts)), sum(map(lshift, by, shifts))
    ux, uy = qx - px, qy - py
    k = sum(map(lshift, map(int.__sub__, map(mul, bx, ay), map(mul, by, ax)), shifts))
    ones = ((1 << width * len(es)) - 1) // ((1 << width) - 1)
    top = ones << width - 1
    bias = top - ones
    left, right = [0] * n, [0] * n
    k_left, k_right = k - bias, k + bias  # side + bias = ux * y - uy * x - k_left
    for v in set(first).union(second):
        t = ux * ys[v] - uy * xs[v]
        left[v], right[v] = (t - k_left) & top, (k_right - t) & top
    for j, (a, b) in enumerate(es):
        m = (left[a] & right[b] | right[a] & left[b]) & (1 << width * j) - 1
        if not m:
            continue
        x, y = xs[a], ys[a]
        vx, vy = xs[b] - x, ys[b] - y
        kv = (vx * y - vy * x) * ones - bias  # each lane: side + bias
        m &= ((vx * py - vy * px - kv) ^ (vx * qy - vy * qx - kv)) & top
        while m:
            low = m & -m
            yield low.bit_length() // width - 1, j
            m ^= low


def _ring_crossings(es: Sequence[Edge], ring: RingOracle) -> List[Tuple[int, int]]:
    """Index pairs i < j, ascending, of the edges of `es` that cross.

    Rim chords (lo, hi) and (lo', hi') cross iff lo < lo' < hi < hi'.  The
    sweep visits chords by ascending high end, the ones sharing a high end
    by descending low end: when chord x closes, the chords still open that
    started after lo[x] are exactly the ones crossing it.  A wheel's
    radials, to rim position j, cross the chords whose short arc holds j.
    """
    m, label = ring.m, ring.label
    n, count = len(label), len(es)
    lo, hi, chords, radials = [], [], [], []
    for i, (a, b) in enumerate(es):
        check_edge(a, b, n)
        a, b = label[a], label[b]
        if a > b:
            a, b = b, a
        lo.append(a)
        hi.append(b)
        (radials if b == m else chords).append(i)
    opening = sorted(lo[i] * count + i for i in chords)  # start keys, ascending
    started = []  # start keys of the open chords, ascending
    k = 0
    hits = []  # i * count + j
    for x in sorted(chords, key=lambda i: hi[i] * n - lo[i]):
        while k < len(opening) and opening[k] < hi[x] * count:
            started.append(opening[k])
            k += 1
        del started[bisect_left(started, lo[x] * count + x)]
        for key in started[bisect_left(started, (lo[x] + 1) * count):]:
            y = key % count
            hits.append(x * count + y if x < y else y * count + x)
    for r in radials:
        j = lo[r]
        for x in chords:
            a, b = lo[x], hi[x]
            inside = a < j < b
            if inside if short_arc(a, b, m) else not (inside or j == a or j == b):
                hits.append(r * count + x if r < x else x * count + r)
    hits.sort()
    return [divmod(h, count) for h in hits]


def is_one_plane(c: HamCycle, oracle: CrossingOracle) -> bool:
    """No cycle edge is properly crossed more than once; stops at the
    first edge crossed twice."""
    es = c.edges()
    crossed = [False] * len(es)
    for i, j in _crossing_pairs(es, oracle):
        if crossed[i] or crossed[j]:
            return False
        crossed[i] = crossed[j] = True
    return True


def are_edge_disjoint(a: HamCycle, b: HamCycle) -> bool:
    return not (set(a.edges()) & set(b.edges()))


def _boundary_starts(edges: Iterable[Edge], m: int) -> List[int]:
    """The start k of each boundary edge (k, k+1 mod m) among `edges`."""
    return [a if (b - a) % m == 1 else b for a, b in edges if ring_boundary(a, b, m)]


def _rim_edges(c: HamCycle, n: int, center_index: Optional[int]) -> Tuple[int, List[Edge]]:
    """The rim size m = n - 1 of a wheel and the cycle's rim edges in rim
    positions (0..m-1, ccw); radial edges are dropped."""
    label, m = wheel_relabeling(n, center_index)[0], n - 1
    return m, [edge(label[a], label[b]) for a, b in c.edges() if m not in (label[a], label[b])]


def _sides_hold(edges: Sequence[Edge], m: int, need: Callable[[int, int], int]) -> bool:
    """Every diagonal (a, b) among `edges` leaves at least `need(i, j)`
    boundary edges on each side (i, j) in ((a, b), (b, a)): the side from i
    ccw to j holds the boundary edges (k, k+1) with i <= k < j cyclically."""
    starts = _boundary_starts(edges, m)
    for a, b in edges:
        if ring_boundary(a, b, m):
            continue
        for i, j in ((a, b), (b, a)):
            span = (j - i) % m
            if sum((k - i) % m < span for k in starts) < need(i, j):
                return False
    return True


def boundary_edge_count(
    c: HamCycle, n: int, config: Config = Config.CONVEX, center_index: Optional[int] = None
) -> int:
    """Number of cycle edges joining cyclically consecutive hull indices.

    For wheel sets only the rim order counts; radial edges are never
    boundary edges.
    """
    if config is Config.GENERAL:
        raise ConfigMismatch("boundary edges are defined for convex and wheel sets")
    if config is Config.WHEEL:
        m, rim = _rim_edges(c, n, center_index)
        return len(_boundary_starts(rim, m))
    return len(_boundary_starts(c.edges(), n))


def radial_edge_count(c: HamCycle, n: int, center_index: Optional[int] = None) -> int:
    center = n - 1 if center_index is None else center_index
    return sum(1 for e in c.edges() if center in e)


def check_boundary_minimum(c: HamCycle, n: int) -> bool:
    """Boundary-edge minimum on a convex set: 2 for even n, 3 for odd n."""
    return boundary_edge_count(c, n) >= (2 if n % 2 == 0 else 3)


def check_diagonal_sides(c: HamCycle, n: int) -> bool:
    """Every diagonal of the cycle leaves enough boundary edges on each side.

    A side from i to j has (j - i) % n + 1 vertices: an odd count needs one
    boundary edge, an even count two.
    """
    return _sides_hold(c.edges(), n, lambda i, j: 1 + (j - i) % n % 2)


def _companions_present(edges_set: set[Edge], k: int, n: int) -> bool:
    return (
        edge(k % n, (k + 2) % n) in edges_set
        and edge((k + 1) % n, (k - 1) % n) in edges_set
    )


def check_companion_edges(c: HamCycle, n: int) -> bool:
    """Companion-edge structure for cycles with two or three boundary edges.

    Two boundary edges (k, k+1): both must come with (k, k+2) and
    (k+1, k-1).  Three: at least one single boundary edge has both
    companions.  Anything else holds vacuously; n < 4 is skipped.
    """
    if n < 4:
        return True
    es = set(c.edges())
    starts = _boundary_starts(es, n)
    if len(starts) == 2:
        return all(_companions_present(es, k, n) for k in starts)
    if len(starts) == 3:
        single = [k for k in starts if (k - 1) % n not in starts and (k + 1) % n not in starts]
        return any(_companions_present(es, k, n) for k in single)
    return True


def check_path_boundary(path: Sequence[int], n: int) -> bool:
    """Boundary-edge minima for a 1-plane Hamiltonian path on a convex set.

    Adjacent pendant vertices need one boundary edge, otherwise two.  Every
    diagonal edge needs a boundary edge on each pendant-free side: a side
    holding a pendant strictly inside is exempt, since the path can simply
    end there (e.g. 0-1-3-4-2 on five points has no boundary edge on the
    {1,2,3} side of the diagonal (1,3)).
    """
    path = list(path)
    path_edges = [edge(path[i], path[i + 1]) for i in range(len(path) - 1)]
    ends = (path[0], path[-1])
    if len(_boundary_starts(path_edges, n)) < (1 if ring_boundary(*ends, n) else 2):
        return False
    return _sides_hold(
        path_edges, n, lambda i, j: 0 if any(0 < (v - i) % n < (j - i) % n for v in ends) else 1
    )


def check_wheel_boundary(c: HamCycle, n: int, center_index: Optional[int] = None) -> bool:
    """Wheel version: two boundary edges minimum, one per side of each rim
    diagonal."""
    m, rim = _rim_edges(c, n, center_index)
    return len(_boundary_starts(rim, m)) >= 2 and _sides_hold(rim, m, lambda i, j: 1)


def _turned(order: Sequence[int], ring: RingOracle) -> Tuple[int, ...]:
    """Ring positions of `order`, turned so that its first rim vertex sits
    at position 0; a wheel's center keeps its label m.  A convex ring's
    labels are its positions (`RingOracle` checks this), so only a wheel's
    are looked up, and the turn is one list lookup per vertex."""
    m = ring.m
    if ring.wheel:
        label = ring.label
        base = label[order[0]]
        if base == m:
            base = label[order[1]]
        order = map(label.__getitem__, order)
    else:
        base = order[0]
    turn = [*range(m - base, m), *range(m - base), m]  # turn[p] = (p - base) % m
    return tuple(map(turn.__getitem__, order))


def verify_packing(cycles: Sequence[HamCycle], n: int, oracle: CrossingOracle) -> dict:
    """Full verification report: Hamiltonicity, crossings, disjointness.

    On a ring over the n vertices (a `RingOracle` with n labels, which its
    constructor has checked are the positions 0..m-1 and a wheel's center
    m, once each) crossings are counted once per rotation class: cycles
    whose ring positions differ only by a turn of the rim (`_turned`).
    Index interleaving and a wheel's short arcs depend only on position
    differences mod m, so turned copies have equal crossing counts, and the
    sweep of the first stands for the rest.  The memo lives for one call.
    Any other oracle, a ring of another size, and a cycle leaving 0..n-1
    are handled cycle by cycle.

    Disjointness marks each edge in one `bytearray`; only a cycle that
    meets a marked edge, or leaves 0..n-1, is compared pair by pair.  Per
    vertex, a ring cycle costs C-level work (its share of a sort, a turn
    and, on a wheel, a label lookup) plus one mark in a Python loop.
    """
    ring = oracle if isinstance(oracle, RingOracle) and len(oracle.label) == n else None
    everyone = list(range(n))
    worst_of: Dict[Tuple[int, ...], int] = {}
    per_cycle = []
    for c in cycles:
        # a vertex outside 0..n-1 is not a point of the set: the cycle is
        # neither Hamiltonian nor 1-plane, and the oracle is not asked
        ham = sorted(c.order) == everyone
        if not (ham or all(0 <= v < n for v in c.order)):
            worst = None
        elif ring is None:
            worst = crossing_report(c, oracle).max_count
        else:
            key = _turned(c.order, ring)
            worst = worst_of.get(key)
            if worst is None:
                worst = worst_of[key] = crossing_report(c, ring).max_count
        one_plane = worst is not None and worst <= 1
        per_cycle.append({"hamiltonian": ham, "max_crossings": worst, "one_plane": one_plane})
    k = len(cycles)
    disjoint = [[True] * k for _ in range(k)]
    # one mark per edge (a, b), a < b, at a * n + b; a cycle that meets a
    # marked edge gets its row checked against the earlier cycles, and one
    # leaving 0..n-1 (never marked; its row has no crossing count) against
    # all the others
    marked = bytearray(n * n)
    for i, (c, row) in enumerate(zip(cycles, per_cycle)):
        if row["max_crossings"] is None:
            others = range(k)
        else:
            shared = False
            order = c.order
            a = order[-1]
            for b in order:
                e = a * n + b if a < b else b * n + a
                if marked[e]:
                    shared = True
                else:
                    marked[e] = 1
                a = b
            others = range(i) if shared else ()
        for j in others:
            if j != i:
                disjoint[i][j] = disjoint[j][i] = are_edge_disjoint(c, cycles[j])
    all_disjoint = all(map(all, disjoint))
    ok = all_disjoint and all(
        r["hamiltonian"] and r["one_plane"] for r in per_cycle
    )
    return {
        "cycles": per_cycle,
        "pairwise_disjoint": disjoint,
        "all_disjoint": all_disjoint,
        "ok": ok,
    }
