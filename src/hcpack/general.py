"""Single-cycle construction on arbitrary points, joining, and the driver.

The cycle builder is a ladder march down a bisecting line: it keeps one
dangling chain end per side and repeatedly links the next extreme pair
across the line: the one hull bridge of the remaining points from one
side to the other.  The written-down move rules leave several geometric
cases open, so the march runs as a depth-first search: each step tries
that pair's rung and its two bridges, rule-conforming moves first, every
added edge keeps incremental crossing counts, and any branch that would
cross an edge twice (or touch a forbidden edge) is cut immediately.
Whatever survives to a full cycle is a verified 1-plane Hamiltonian cycle
by construction.

The packer stacks such cycles level by level: each level cuts each pair
of parts with one ham-sandwich cut, builds one cycle per part on its half,
and splices them into a single cycle through exchange moves.  Cut choices
are searched depth-first across levels, so a dead partition at the bottom
backtracks into different cuts above.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from operator import lshift, mul
from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence, Tuple

# separating_subset_line: unused here; perfbench/tracer.py patches this name
from .bisection import Bisection, bisecting_lines, ham_sandwich_cuts, separating_subset_line
# crossing_report and is_one_plane: unused here; perfbench/tracer.py patches these names
from .cycles import HamCycle, Packing, crossing_report, is_one_plane
from .errors import InvalidN, MarchFailed, NoJoinFound, PackingIncomplete
from .geometry import (
    CrossingOracle,
    Edge,
    PointSet,
    check_subset,
    coordinate_oracle,
    edge,
    general_set,
    left_chain,
    segments_properly_cross,  # unused here; perfbench/tracer.py patches this name
)

NODE_CAP = 50000  # march search nodes per bisection
MAX_CUTS = 60  # bisecting lines a free march tries
PER_LEVEL_VARIANTS = 8  # cut variants tried per level
LEVEL_ATTEMPTS = 200  # level attempts below the first level one pack may make


@dataclass
class LevelParts:
    """The parts one level marched on, in counter-clockwise label order,
    and how each part was cut for its march (`cut_case`): "ham-sandwich"
    for a half of its pair's cut, "unconstrained" for a cut of its own."""

    parts: List[Tuple[int, ...]]
    cut_case: Dict[int, str]


@dataclass(frozen=True)
class JoinMove:
    removed: Tuple[Edge, Edge]
    added: Tuple[Edge, Edge]
    created_uncrossings: Tuple[Tuple[Tuple[Edge, Edge], Tuple[Edge, Edge]], ...] = ()

    def removed_edges(self) -> List[Edge]:
        out = list(self.removed)
        for rem_pair, _ in self.created_uncrossings:
            out.extend(rem_pair)
        return out


@dataclass
class GeneralPackResult:
    packing: Packing
    levels: List[LevelParts]
    join_log: List[List[JoinMove]]


# ---------------------------------------------------------------------------
# ladder march


def _lane_width(xs, ys) -> int:
    """Bits per lane for the packed side tests on these coordinates.

    A side value `ux * (y - ay) - uy * (x - ax)` of three of the points has
    absolute value at most 8 M^2, M the largest |coordinate|, so with
    W = 2 * bitlen(M) + 5 it lies strictly inside +-(2^(W-1) - 1)."""
    return 2 * max(max(map(abs, xs)), max(map(abs, ys))).bit_length() + 5


class _FlatLedger:
    """The march's edge set, grown and shrunk one edge at a time, never
    holding an edge crossed twice, on flat integer coordinates of points
    in general position.

    Each held edge `(c, d)` owns a lane of `width` bits in three packed
    integers `ux`, `uy` and `k`: its line `(ux, uy, k)`, on which a point p
    lies on the side `ux * p.y - uy * p.x - k` of c -> d, is added at the
    lane's offset and subtracted on `remove`.  So `ux * y - uy * x - k` is
    the sum of every held line's side value of (x, y), each at its lane.
    Each lane value is a side value of three points, so by `_lane_width`
    it stays strictly inside +-bias, bias = 2^(width-1) - 1 per lane: in
    `bias + D` and `bias - D` every lane then holds a value in [0, 2^width),
    no carry or borrow crosses into the next lane, and the top bit of a
    lane is set exactly when D's lane value is > 0 or < 0 respectively.
    Free lanes hold 0 and set no bit.  Two such evaluations give the held
    lines that strictly separate the ends of a new edge at once; only for
    those lanes are the held edge's ends tested against the new line.  A
    zero determinant can only be a shared endpoint, which never crosses.
    A new edge is refused when it would cross an edge that is already
    crossed, or two edges; neither depends on the order the crossing
    lanes are read in, so every verdict is `is_one_plane`'s.  Lanes are
    added one at a time when no freed lane is left, so the packed integers
    grow with the edges the march holds at once, not with the point count.
    """

    def __init__(self, xs: List[int], ys: List[int]):
        self.xs, self.ys = xs, ys
        self.width = _lane_width(xs, ys)
        # edge -> (lane, ux, uy, k, edges crossing it)
        self.crossed: Dict[Edge, Tuple[int, int, int, int, List[Edge]]] = {}
        self.lane_edge: List[Edge] = []  # the edge last held in each lane
        self.free: List[int] = []
        self.ux = self.uy = self.k = 0
        self.bias = self.top = 0  # 2^(width-1) - 1 and 2^(width-1) per lane

    def add(self, e: Edge) -> bool:
        """Insert `e`; refuse it if present or if any edge would then be
        crossed twice."""
        crossed = self.crossed
        if e in crossed:
            return False
        xs, ys, width = self.xs, self.ys, self.width
        a, b = e
        ax, ay, bx, by = xs[a], ys[a], xs[b], ys[b]
        vx, vy = bx - ax, by - ay
        k = vx * ay - vy * ax
        ux, uy, kh, bias = self.ux, self.uy, self.k, self.bias
        da = ux * ay - uy * ax - kh
        db = ux * by - uy * bx - kh
        sep = ((da + bias) & (bias - db) | (bias - da) & (db + bias)) & self.top
        hit: List[Edge] = []
        while sep:
            low = sep & -sep
            sep ^= low
            f = self.lane_edge[low.bit_length() // width - 1]
            c, d = f
            d3 = vx * ys[c] - vy * xs[c] - k
            d4 = vx * ys[d] - vy * xs[d] - k
            if (d3 > 0) == (d4 > 0):
                continue
            if crossed[f][4] or hit:
                return False
            hit.append(f)
        if self.free:
            lane = self.free.pop()
            self.lane_edge[lane] = e
        else:
            lane = len(self.lane_edge)
            self.lane_edge.append(e)
            high = 1 << width * lane + width - 1  # the new lane's top bit
            self.top |= high
            self.bias += high - (1 << width * lane)
        shift = width * lane
        self.ux += vx << shift
        self.uy += vy << shift
        self.k += k << shift
        crossed[e] = (lane, vx, vy, k, hit)
        for f in hit:
            crossed[f][4].append(e)
        return True

    def remove(self, e: Edge) -> None:
        crossed = self.crossed
        lane, vx, vy, k, hits = crossed.pop(e)
        for f in hits:
            crossed[f][4].remove(e)
        shift = self.width * lane
        self.ux -= vx << shift
        self.uy -= vy << shift
        self.k -= k << shift
        self.free.append(lane)


class _March:
    """One backtracking march over a fixed bisection.

    Every point gets the key `cross(d, p)` along the cut direction `d`; the
    cut separates the sides, so every right key lies on one side `bs` of
    every left key.  The coordinates are copied once into flat integer
    lists, and each side is sorted once by `(key, -dot(d, p))`.
    """

    def __init__(self, points, bisection: Bisection, forbidden):
        left, right = list(bisection.left), list(bisection.right)
        if len(left) < len(right):
            left, right = right, left
        self.left0, self.right0 = left, right
        xs, ys = self.xs, self.ys = [p.x for p in points], [p.y for p in points]
        dx, dy = bisection.direction
        key = self.key = {i: dx * ys[i] - dy * xs[i] for i in left + right}
        lo, hi = min(key[i] for i in left), max(key[i] for i in left)
        if all(key[i] > hi for i in right):
            self.bs = 1
        elif all(key[i] < lo for i in right):
            self.bs = -1
        else:
            raise ValueError("the bisection's direction does not separate its sides")
        # the bridge's sweep order: the low-key side, then the high-key side
        by_sweep = lambda i: (key[i], -dx * xs[i] - dy * ys[i])
        low, high = (left, right) if self.bs > 0 else (right, left)
        self.sweep = (sorted(low, key=by_sweep), sorted(high, key=by_sweep))
        self.forbidden = forbidden
        self.nodes = 0
        self.ledger = _FlatLedger(xs, ys)
        self.adj: Dict[int, List[int]] = {i: [] for i in left + right}
        self.stone: Optional[Edge] = None

    # -- incremental edge bookkeeping ----------------------------------------
    def _try_add(self, u: int, w: int) -> bool:
        e = edge(u, w)
        if e in self.forbidden or not self.ledger.add(e):
            return False
        self.adj[u].append(w)
        self.adj[w].append(u)
        return True

    def _undo(self, u: int, w: int) -> None:
        self.ledger.remove(edge(u, w))
        self.adj[u].pop()
        self.adj[w].pop()

    # -- move generation ------------------------------------------------------
    def _bridge(self, r1, r2) -> Optional[Tuple[int, int]]:
        """The paper's next extreme pair: the edge (v1, v2), v1 in r1 and
        v2 in r2, with every other remaining point on side `bs` of v1 -> v2.

        It is the hull edge of r1 | r2 running ccw from r1 to r2 (bs > 0) or
        from r2 to r1 (bs < 0).  The bisecting line separates r1 from r2, so
        the hull boundary crosses it exactly twice, once in each direction,
        and the pair is unique.  None if a side is empty.

        In the frame (key, -dot(d, p)), which keeps orientation, that edge
        is the one edge of the lower monotone chain running from the
        low-key side to the high-key side, so one `left_chain` over the
        sweep order finds it.  The points are in general position, so no
        turn of the chain has a zero determinant.
        """
        if not r1 or not r2:
            return None
        if len(r1) == len(r2) == 1:
            return next(iter(r1)), next(iter(r2))
        low, high = (r1, r2) if self.bs > 0 else (r2, r1)
        lows, highs = self.sweep
        sweep = itertools.chain(filter(low.__contains__, lows), filter(high.__contains__, highs))
        chain = left_chain(sweep, self.xs, self.ys)
        k = next(j for j, i in enumerate(chain) if i in high)
        a, b = chain[k - 1], chain[k]
        return (a, b) if self.bs > 0 else (b, a)

    def _on_side(self, u: int, w: int, s: int, pts) -> bool:
        """Every point of `pts` other than u lies strictly on side s of u -> w."""
        xs, ys = self.xs, self.ys
        ux, uy = xs[w] - xs[u], ys[w] - ys[u]
        k = ux * ys[u] - uy * xs[u]
        for i in pts:
            if i != u and (ux * ys[i] - uy * xs[i] - k) * s <= 0:
                return False
        return True

    def _moves(self, pair, r1, r2, e1, e2):
        """The rung and the two bridges of `pair`, rule-conforming first, as
        (first edge, second edge, new chain ends).  Each takes v1 from r1 and
        v2 from r2.

        Lazy: a conforming rung is yielded before the bridges' conformity
        is scanned over every remaining point, so that scan runs only once
        the rung's subtree has failed.  The search restores r1 and r2 before
        asking for the next move, so the order is the eager one."""
        v1, v2 = pair
        on_side, key = self._on_side, self.key
        rung = ((e1, v2), (e2, v1), (v1, v2))
        rung_ok = on_side(v1, v2, -self.bs, (e1, e2))
        if rung_ok:
            yield rung
        bridges = (((v1, e2), (v1, v2), (e1, v2)), ((v2, e1), (v2, v1), (v1, e2)))
        conforming = []
        for vi, ei, eo in ((v1, e1, e2), (v2, e2, e1)):
            d = key[ei] - key[vi]
            lbs = (d > 0) - (d < 0)
            conforming.append(
                lbs != 0
                and on_side(vi, ei, -lbs, (eo,))
                and on_side(vi, ei, lbs, r1)
                and on_side(vi, ei, lbs, r2)
            )
        yield from (m for m, ok in zip(bridges, conforming) if ok)
        if not rung_ok:
            yield rung
        yield from (m for m, ok in zip(bridges, conforming) if not ok)

    # -- search ---------------------------------------------------------------
    def run(self) -> Tuple[HamCycle, Optional[Edge]]:
        n = len(self.left0) + len(self.right0)
        if n == 3:
            order = sorted(self.left0 + self.right0)
            cyc = HamCycle(tuple(order))
            if any(e in self.forbidden for e in cyc.edges()):
                raise MarchFailed("triangle edge forbidden")
            return cyc, None
        r1, r2 = set(self.left0), set(self.right0)
        pair = self._bridge(r1, r2)
        if pair is not None and self._try_add(*pair):
            v1, v2 = pair
            r1.discard(v1)
            r2.discard(v2)
            if self._dfs(r1, r2, v1, v2):
                start = self.left0[0]
                cyc = [start]
                prev = None
                while len(cyc) < n:
                    a, b = self.adj[cyc[-1]]
                    nxt = b if a == prev else a
                    prev = cyc[-1]
                    cyc.append(nxt)
                return HamCycle(tuple(cyc)), self.stone
        raise MarchFailed(f"march exhausted after {self.nodes} nodes")

    def _dfs(self, r1, r2, e1, e2) -> bool:
        self.nodes += 1
        if self.nodes > NODE_CAP:
            raise MarchFailed(f"node cap {NODE_CAP} hit")
        if not r1 and not r2:
            return self._try_add(e1, e2)
        for ri, ei_, eo_ in ((r1, e1, e2), (r2, e2, e1)):
            ro = r2 if ri is r1 else r1
            if not ro and len(ri) == 1:
                w = next(iter(ri))
                if not self._try_add(ei_, w):
                    return False
                if not self._try_add(eo_, w):
                    self._undo(ei_, w)
                    return False
                self.stone = edge(ei_, w)
                return True
        pair = self._bridge(r1, r2)
        if pair is None:
            return False
        v1, v2 = pair
        for first, second, ends in self._moves(pair, r1, r2, e1, e2):
            if not self._try_add(*first):
                continue
            if not self._try_add(*second):
                self._undo(*first)
                continue
            r1.discard(v1)
            r2.discard(v2)
            if self._dfs(r1, r2, *ends):
                return True
            r1.add(v1)
            r2.add(v2)
            self._undo(*second)
            self._undo(*first)
        return False


def march_cycle(
    ps,
    subset: Sequence[int],
    bisection: Optional[Bisection] = None,
    forbidden: FrozenSet[Edge] = frozenset(),
) -> Tuple[HamCycle, Bisection, List[Edge]]:
    """A verified 1-plane Hamiltonian cycle on `subset` via the ladder march.

    `ps` is a PointSet, or a point sequence that must be in general
    position (DegenerateInput otherwise; see `geometry.general_set`).
    With no bisection given, successive bisecting lines are tried until
    one admits a march.  The returned stone list is empty or holds the
    march's stone: its terminal same-side edge, the edge that closes the
    cycle between two points on one side of its cut.  A bare triangle
    reports no stone.  The packer ignores stones: its checks are exact.
    Raises ValueError on a subset of fewer than 3 points, one that is not
    distinct vertices of the set (`geometry.check_subset`), or a bisection
    whose two sides together are not exactly the subset.
    """
    ps = general_set(ps)
    sub = check_subset(subset, len(ps))
    if len(sub) < 3:
        raise ValueError("need at least 3 points")
    cuts: Iterator[Bisection]
    if bisection is not None:
        if sorted(bisection.left + bisection.right) != sub:
            last = len(ps) - 1
            raise ValueError(f"subset vertices must be distinct and in 0..{last}, each on a side")
        cuts = iter([bisection])
    else:
        cuts = itertools.islice(bisecting_lines(ps, sub), MAX_CUTS)
    last = None
    for cut in cuts:
        try:
            cyc, stone = _March(ps.points, cut, forbidden).run()
        except MarchFailed as exc:
            last = exc
            continue
        return cyc, cut, [] if stone is None else [stone]
    raise MarchFailed(f"no bisection admits a march: {last}")


# ---------------------------------------------------------------------------
# uncrossing and joining


def uncross(c: HamCycle, pair: Tuple[Edge, Edge], oracle: CrossingOracle) -> HamCycle:
    """Replace a crossing pair of cycle edges by the single-cycle
    reconnection, 1-plane or not: of the two reconnection patterns exactly
    one keeps one cycle.  Raises ValueError unless `pair` is two crossing
    edges of `c`."""
    e1, e2 = pair
    if not oracle(e1, e2):
        raise ValueError(f"{e1} and {e2} do not cross")
    # rotate so that e1 closes the ring; e2 is then ring[k-1], ring[k]
    n = len(c)
    i, j = sorted(map(c.order.index, e1))
    if j == i + 1:
        ring = c.order[j:] + c.order[:j]
    elif (i, j) == (0, n - 1):
        ring = c.order
    else:
        raise ValueError(f"{e1} is not an edge of the cycle")
    p, k = sorted(map(ring.index, e2))
    if k != p + 1:
        raise ValueError(f"{e2} is not an edge of the cycle")
    return HamCycle(ring[k:] + ring[k - 1 :: -1])


def _splice(c1: HamCycle, c2: HamCycle, u2: int, v2: int, pattern: int) -> HamCycle:
    """c1 read forward from `u2`, then c2 read backward from the
    predecessor of `v2` (pattern 0) or forward from `v2` (pattern 1)."""
    i, j = c1.order.index(u2), c2.order.index(v2)
    p1 = c1.order[i:] + c1.order[:i]
    p2 = c2.order[j:] + c2.order[:j]
    return HamCycle(p1 + (p2[::-1] if pattern == 0 else p2))


class _JoinScreen:
    """Crossing accounting for candidate joins of two vertex-disjoint cycles
    on points in general position.

    An added edge shares one endpoint with each removed edge, so it crosses
    neither, and the screen edges it hits do not depend on the candidate:
    `hits(a)` memoizes them in edge order and stops at 2, since an added
    edge crossed twice fails every candidate it is in.  Both cycles are
    1-plane, so a candidate `(r1, r2, a1, a2)` can only fail on the added
    edges or on an edge whose count changes or is already over 1:

    - either added edge has 2 hits;
    - `a1` crosses `a2` and either added edge has a hit;
    - some hit edge or edge crossed twice in the union (`over`), other than
      `r1` and `r2`, ends with `counts[f] - [f x r1] - [f x r2]` plus its
      hits by `a1` and `a2` above 1.

    Side tests are packed into lanes of `width` bits (see `_FlatLedger` for
    the layout and why no carry crosses a lane).  Lane t holds vertex
    `ring[t]`, where `ring` lists c1's cycle order, a copy of c1's first
    vertex, c2's cycle order and a copy of c2's first vertex, and the line
    from `ring[t]` to the next vertex on its cycle, which is `ring[t + 1]`.
    So screen edge i sits in lane i, or i + 1 past c1.  A copy's lane holds
    no edge: its line runs from the copy to itself, and no point lies
    strictly left of it.  The lines are packed once, so each vertex's side
    mask `left[w]`, the top bit of lane t set when `w` lies strictly left
    of that lane's line, is one packed evaluation.  A point lies on an
    edge's line only if it ends that edge, so for an edge not at u or v
    the lane of `left[u] ^ left[v]` is set exactly when the edge's line
    separates u and v.  `_crossing_lanes(u, v)` evaluates the line of u
    and v once over the packed vertices: the edge in lane t has its ends
    strictly on opposite sides when `ring[t]` is strictly left and
    `ring[t + 1]` strictly right, or the other way round, which an edge at
    u or v never has, as u and v lie on that line.  The segment crosses
    the edges set in both masks.  That test gives `hits(a)`, and the
    screen's own crossing counts and pairs, each edge against the lanes
    above its own; `own_pairs` lists the crossing pairs within one cycle.
    The oracle decides only whether `a1` crosses `a2`.  `candidate_ok` is
    only asked about 1-plane cycles.
    """

    def __init__(
        self, c1: HamCycle, c2: HamCycle, xs: List[int], ys: List[int], oracle: CrossingOracle
    ):
        self.xs, self.ys, self.oracle = xs, ys, oracle
        self.cycles = (c1, c2)
        self.es1, self.es2 = c1.edges(), c2.edges()
        edges = self.edges = self.es1 + self.es2
        self.index = {e: i for i, e in enumerate(edges)}
        n1 = self.n1 = len(c1)
        ring = c1.order + c1.order[:1] + c2.order + c2.order[:1]
        far = c1.order[1:] + c1.order[:1] * 2 + c2.order[1:] + c2.order[:1] * 2  # lines' far ends
        px, py = [xs[w] for w in ring], [ys[w] for w in ring]
        qx, qy = [xs[w] for w in far], [ys[w] for w in far]
        width = self.width = _lane_width(px, py)
        shifts = range(0, width * len(ring), width)
        x, y = sum(map(lshift, px, shifts)), sum(map(lshift, py, shifts))
        ux, uy = sum(map(lshift, qx, shifts)) - x, sum(map(lshift, qy, shifts)) - y
        k = sum(map(lshift, map(int.__sub__, map(mul, qx, py), map(mul, qy, px)), shifts))
        self.x, self.y = x, y
        ones = self.ones = ((1 << width * len(ring)) - 1) // ((1 << width) - 1)
        top = self.top = ones << width - 1
        bias = self.bias = top - ones
        self.left = {w: (ux * ys[w] - uy * xs[w] - k + bias) & top for w in ring}
        # the screen's own crossings: edge i against the edges in the lanes
        # above its own
        counts = self.counts = [0] * len(edges)
        crossed = self.crossed = [0] * len(edges)  # bit j of crossed[i]: i x j
        for i, (c, d) in enumerate(edges):
            lane = i + (i >= n1)
            m = self._crossing_lanes(c, d) >> width * (lane + 1)
            while m:
                low = m & -m
                m ^= low
                j = lane + low.bit_length() // width
                j -= j > n1
                counts[i] += 1
                counts[j] += 1
                crossed[i] |= 1 << j
                crossed[j] |= 1 << i
        self.over = tuple(i for i, c in enumerate(counts) if c > 1)
        self._hits: Dict[Edge, Tuple[int, ...]] = {}

    def own_pairs(self, which: int) -> List[Tuple[int, int]]:
        """Index pairs i < j, ascending, of the crossing edges within cycle
        `which` (0 or 1), as indices into that cycle's `edges()`."""
        lo, hi = (0, len(self.es1)) if which == 0 else (len(self.es1), len(self.edges))
        pairs = []
        for i in range(lo, hi):
            m = self.crossed[i] >> i + 1 & (1 << hi - i - 1) - 1  # bit b: edge i + 1 + b
            while m:
                pairs.append((i - lo, i - lo + (m & -m).bit_length()))
                m &= m - 1
        return pairs

    def _crossing_lanes(self, u: int, v: int) -> int:
        """The top bits of the lanes whose edges the segment from screen
        vertex u to screen vertex v properly crosses."""
        xs, ys, width, bias, top = self.xs, self.ys, self.width, self.bias, self.top
        ax, ay = xs[u], ys[u]
        dx, dy = xs[v] - ax, ys[v] - ay
        side = dx * self.y - dy * self.x - (dx * ay - dy * ax) * self.ones
        lt, rt = (bias + side) & top, (bias - side) & top
        return (self.left[u] ^ self.left[v]) & (lt & rt >> width | rt & lt >> width)

    def hits(self, a: Edge) -> Tuple[int, ...]:
        """Indices of the first (at most 2) screen edges `a` crosses."""
        h = self._hits.get(a)
        if h is not None:
            return h
        m = self._crossing_lanes(*a)
        width, n1 = self.width, self.n1
        found: List[int] = []
        while m and len(found) < 2:
            low = m & -m
            m ^= low
            lane = low.bit_length() // width - 1
            found.append(lane - (lane > n1))
        h = self._hits[a] = tuple(found)
        return h

    def candidate_ok(self, r1: Edge, r2: Edge, a1: Edge, a2: Edge) -> bool:
        """All merged-cycle crossing counts stay <= 1."""
        h1 = self.hits(a1)
        if len(h1) > 1:
            return False
        h2 = self.hits(a2)
        if len(h2) > 1:
            return False
        if (h1 or h2) and self.oracle(a1, a2):
            return False
        i1, i2 = self.index[r1], self.index[r2]
        counts, crossed = self.counts, self.crossed
        for f in h1 + h2 + self.over:
            if f == i1 or f == i2:
                continue
            x = crossed[f]
            if counts[f] - (x >> i1 & 1) - (x >> i2 & 1) + (f in h1) + (f in h2) > 1:
                return False
        return True


def _reversed_in(es: List[Edge], c: HamCycle) -> List[bool]:
    """For each edge (a, b) of `es`, whether `c` visits b just before a."""
    succ = dict(zip(c.order, c.order[1:] + c.order[:1]))
    return [succ[a] != b for a, b in es]


def _plain_join(screen: _JoinScreen, forbidden, extra_uncross=()):
    """The first exchange in canonical order that avoids `forbidden` and
    that the screen accepts; the screen is exact, so its splice is 1-plane."""
    c1, c2 = screen.cycles
    es1, es2 = sorted(screen.es1), sorted(screen.es2)
    flips2 = _reversed_in(es2, c2)  # once for all r1
    for r1, flip1 in zip(es1, _reversed_in(es1, c1)):
        u1, u2 = r1[::-1] if flip1 else r1
        for r2, flip2 in zip(es2, flips2):
            v1, v2 = r2[::-1] if flip2 else r2
            # the cycles are vertex-disjoint, so no added edge is a loop
            for pattern, added in enumerate((
                ((u1, v1) if u1 < v1 else (v1, u1), (u2, v2) if u2 < v2 else (v2, u2)),
                ((u1, v2) if u1 < v2 else (v2, u1), (u2, v1) if u2 < v1 else (v1, u2)),
            )):
                if added[0] in forbidden or added[1] in forbidden:
                    continue
                if not screen.candidate_ok(r1, r2, added[0], added[1]):
                    continue
                return _splice(*screen.cycles, u2, v2, pattern), JoinMove(
                    removed=(r1, r2), added=added, created_uncrossings=tuple(extra_uncross)
                )
    return None


def join_cycles(
    c1: HamCycle,
    c2: HamCycle,
    forbidden: FrozenSet[Edge],
    ps,
) -> Tuple[HamCycle, JoinMove]:
    """Merge two vertex-disjoint 1-plane cycles on the points `ps` into one.

    `ps` is a PointSet, or a point sequence that must be in general
    position (DegenerateInput otherwise; see `geometry.general_set`).
    Plain exchange pairs are tried in canonical order, then variants that
    first uncross one crossing pair of one cycle (c1's pairs in sorted
    order, then c2's); a join never uncrosses both cycles, so a move holds
    at most one created uncrossing.  Added and created edges must avoid
    `forbidden`, and an uncrossed cycle must stay 1-plane.  Crossings are
    decided exactly on the points' integer coordinates.  Raises ValueError
    unless the two cycles together are distinct vertices of the set
    (`geometry.check_subset`).
    """
    ps = general_set(ps)
    check_subset(c1.order + c2.order, len(ps))
    xs, ys = [p.x for p in ps.points], [p.y for p in ps.points]
    oracle = coordinate_oracle(ps)
    base = _JoinScreen(c1, c2, xs, ys, oracle)
    r = _plain_join(base, forbidden)
    if r:
        return r
    for which, c in enumerate((c1, c2)):
        es = c.edges()
        old = set(es)
        for pair in sorted((es[i], es[j]) for i, j in base.own_pairs(which)):
            nc = uncross(c, pair, oracle)
            created = tuple(e for e in nc.edges() if e not in old)
            if any(e in forbidden for e in created):
                continue
            screen = _JoinScreen(*((nc, c2), (c1, nc))[which], xs, ys, oracle)
            ends = [i for p in screen.own_pairs(which) for i in p]
            if len(ends) != len(set(ends)):
                continue  # an edge of nc is crossed twice
            r = _plain_join(screen, forbidden, [(pair, created)])
            if r:
                return r
    raise NoJoinFound(
        f"no join for cycles of size {len(c1)} and {len(c2)} "
        f"with {len(forbidden)} forbidden edges"
    )


# ---------------------------------------------------------------------------
# the level driver


def _ccw_part_order(parts: List[Tuple[int, ...]], points) -> List[Tuple[int, ...]]:
    """Parts by exact angular order of centroids around the global centroid."""
    total = sum(len(p) for p in parts)
    gx = sum(points[i].x for p in parts for i in p)
    gy = sum(points[i].y for p in parts for i in p)

    def keyed(part):
        """The part's centroid vector from the global centroid (scaled by
        `total`), its half plane, its smallest label, and the part."""
        vx = total * sum(points[i].x for i in part) - len(part) * gx
        vy = total * sum(points[i].y for i in part) - len(part) * gy
        return vx, vy, 0 if (vy > 0 or (vy == 0 and vx > 0)) else 1, min(part), part

    def cmp(k1, k2):
        x1, y1, h1, m1, _ = k1
        x2, y2, h2, m2, _ = k2
        if h1 != h2:
            return -1 if h1 < h2 else 1
        c = x1 * y2 - y1 * x2
        if c != 0:
            return -1 if c > 0 else 1
        return -1 if m1 < m2 else 1

    return [k[-1] for k in sorted(map(keyed, parts), key=functools.cmp_to_key(cmp))]


def _nth(it, idx):
    return next(itertools.islice(it, idx, None), None)


def _fold(cycles: List[HamCycle], used, ps: PointSet) -> Tuple[HamCycle, List[JoinMove]]:
    """Join the part cycles into one, greedily in ccw order; a stuck fold
    restarts from the next seed cycle."""
    last_err: Optional[Exception] = None
    for seed in range(len(cycles)):
        rest = cycles[:seed] + cycles[seed + 1 :]
        merged, moves = cycles[seed], []
        while rest:
            for j, c in enumerate(rest):
                try:
                    merged, mv = join_cycles(merged, c, used, ps)
                except NoJoinFound as exc:
                    last_err = exc
                    continue
                moves.append(mv)
                del rest[j]
                break
            else:
                last_err = NoJoinFound(f"fold stuck: {last_err}")
                break
        else:
            return merged, moves
    raise NoJoinFound(str(last_err))


def _level_cuts(ps: PointSet, parts, variant) -> Optional[List[Optional[Bisection]]]:
    """The cut each part of a level marches on in the level's variant-th
    attempt.  The first level's single part takes its variant-th bisecting
    line, and there is no attempt once those run out (None).  Parts `2t`
    and `2t + 1` take the halves of their variant-th ham-sandwich cut, or
    None, a free march, once their pair's stream is shorter."""
    if len(parts) == 1:
        cut = _nth(bisecting_lines(ps, parts[0]), variant)
        return None if cut is None else [cut]
    cuts: List[Optional[Bisection]] = [None] * len(parts)
    for t in range(0, len(parts), 2):
        hs = _nth(ham_sandwich_cuts(ps, parts[t], parts[t + 1]), variant)
        if hs is not None:
            e, (l1, r1, l2, r2) = hs
            cuts[t], cuts[t + 1] = Bisection(e, l1, r1), Bisection(e, l2, r2)
    return cuts


def _run_level(ps: PointSet, parts, cuts, used):
    """One attempt at a level: each part marches on its cut, the cycles
    fold into one, and the halves of the cuts marched on, in ccw order,
    are the next level's parts.  A cut that admits no march fails the
    attempt with MarchFailed."""
    marched = [march_cycle(ps, p, bisection=c, forbidden=used) for p, c in zip(parts, cuts)]
    merged, moves = _fold([cyc for cyc, _, _ in marched], used, ps)
    halves = [tuple(sorted(half)) for _, cut, _ in marched for half in (cut.left, cut.right)]
    return merged, moves, _ccw_part_order(halves, ps.points)


def pack_general_detailed(ps) -> GeneralPackResult:
    """At least k-1 edge-disjoint 1-plane Hamiltonian cycles on n = 2^k + h
    points.

    `ps` is a PointSet, or a point sequence that must be in general
    position (DegenerateInput otherwise; see `geometry.general_set`).
    It is validated once, here: every march, join and cut inside gets the
    same PointSet.  The search keeps one path of levels, each entry a
    level's cycle, its join moves and the parts it marched on, from the
    first level's one part of all points down.  Each level tries up to
    PER_LEVEL_VARIANTS cut variants depth-first, up to one in which no
    part had a cut; a level whose parts cannot host a fresh cycle is
    popped, so the search backtracks into different cuts above.  The pack
    makes at most LEVEL_ATTEMPTS level attempts below the first level.
    Raises InvalidN below 4 points, and PackingIncomplete (with the
    longest path's cycles) if the search ends without reaching k-1 cycles.
    """
    ps = general_set(ps)
    n = len(ps)
    k = n.bit_length() - 1
    if k < 2:
        raise InvalidN(f"general packing needs n >= 4, got {n}")
    counter = 0
    last_err: Optional[Exception] = None
    best: List[HamCycle] = []
    path: List[Tuple[HamCycle, List[JoinMove], LevelParts]] = []

    def solve(parts, used) -> bool:
        """Extend the path, from a level that marches on `parts`, to k-1
        levels."""
        nonlocal counter, last_err, best
        if len(path) > len(best):
            best = [c for c, _, _ in path]
        if len(path) >= k - 1:
            return True
        for variant in range(PER_LEVEL_VARIANTS):
            if path:  # the first level's attempts are not counted
                if counter >= LEVEL_ATTEMPTS:
                    return False
                counter += 1
            cuts = _level_cuts(ps, parts, variant)
            if cuts is None:
                return False
            try:
                merged, moves, below = _run_level(ps, parts, cuts, used)
            except (MarchFailed, NoJoinFound) as exc:
                last_err = exc
            else:
                case = "ham-sandwich" if len(parts) > 1 else "unconstrained"
                cut_case = {i: "unconstrained" if c is None else case for i, c in enumerate(cuts)}
                path.append((merged, moves, LevelParts(parts, cut_case)))
                if solve(below, used | set(merged.edges())):
                    return True
                path.pop()
            if all(c is None for c in cuts):
                return False  # every later variant would repeat this attempt
        return False

    if solve([tuple(range(n))], set()):
        cycles, join_log, levels = zip(*path)
        return GeneralPackResult(Packing(cycles), list(levels), list(join_log))
    raise PackingIncomplete(
        f"search exhausted ({counter} level attempts): {last_err}",
        level=len(best) + 1,
        cycles=best,
    )


def pack_general(ps) -> Packing:
    return pack_general_detailed(ps).packing
