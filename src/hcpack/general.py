"""Single-cycle construction on arbitrary points, joining, and the driver.

The cycle builder is a ladder march down a bisecting line: it keeps one
dangling chain end per side and repeatedly links the next extreme pair
across the line: the one hull bridge of the remaining points from one
side to the other.  The written-down move rules leave several geometric
cases open, so the march runs as a depth-first search: each step tries
that pair's rung and its two bridges, rule-conforming moves first, every
added edge takes a lane of the crossing engine (`_Lanes`), and any branch
that would cross an edge twice (or touch a forbidden edge) is cut at once.
Whatever survives to a full cycle is a verified 1-plane Hamiltonian cycle
by construction.

The packer stacks such cycles level by level: each level cuts each pair
of parts with one ham-sandwich cut, builds one cycle per part on its half,
and splices them into a single cycle through exchange moves, screened on
the same engine.  Cut choices are searched depth-first across levels, so
a dead partition at the bottom backtracks into different cuts above.
"""

from __future__ import annotations

import copy
import functools
import itertools
from dataclasses import dataclass
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


class _Lanes:
    """Edges held on the flat integer coordinates of points in general
    position, one lane each, and the held edges a segment properly crosses.

    A held edge (c, d) owns a lane of W = 2 * bitlen(M) + 5 bits, M the
    largest |coordinate|, in five packed integers: its line `(ux, uy, k)`,
    on which a point p lies on the side `ux * p.y - uy * p.x - k` of
    c -> d, and its end c = `(px, py)`; its end d is c + (ux, uy).  A free
    lane holds 0 in all five.  Each lane of an evaluation below is a side
    value of three of the points, at most 8 M^2 in absolute value (at most
    4 M^2 in a free lane), so strictly inside +-bias, bias = 2^(W-1) - 1
    per lane: each lane of `bias + D` and `bias - D` is in [0, 2^W), no
    carry or borrow crosses a lane for any integer input, and a lane's top
    bit is set exactly when D's lane value is > 0, or < 0 respectively.

    `crossing(a, b)` is three evaluations and no loop over lanes.  The held
    lines at a and at b give the lanes whose line strictly separates a and
    b.  The segment's line at the packed ends c gives each lane's side
    value of c, and adding the first two's difference gives d's: a held
    line's side of a less its side of b is the segment's side of d less
    its side of c.  Their top bits give the lanes whose ends the segment
    strictly separates.  An edge at a or b has that vertex on its line, so
    is never separated, and in general position a separated edge has no
    end on the segment's line: the lanes in both are the held edges the
    segment properly crosses.  A mask sets the top bit of each of its
    lanes (`bit`).  A released lane is taken again first, so the packed
    integers grow with the edges held at once.
    """

    def __init__(self, xs: List[int], ys: List[int]):
        self.xs, self.ys = xs, ys
        self.width = 2 * max(max(map(abs, xs)), max(map(abs, ys))).bit_length() + 5
        self.lane: Dict[Edge, int] = {}  # held edge -> its lane
        self.edges: List[Edge] = []  # the edge last held in each lane
        self.spare: List[int] = []  # released lanes
        self.ux = self.uy = self.k = self.px = self.py = 0
        self.ones = self.bias = self.top = 0  # 1, 2^(W-1) - 1 and 2^(W-1) per lane

    def bit(self, lane: int) -> int:
        return 1 << self.width * lane + self.width - 1

    def indices(self, mask: int) -> Iterator[int]:
        """The lanes set in `mask`, ascending."""
        width = self.width
        while mask:
            low = mask & -mask
            mask ^= low
            yield low.bit_length() // width - 1

    def _put(self, e: Edge, lane: int, sign: int) -> None:
        """Add (sign 1) or take away (sign -1) the terms of `e` at `lane`."""
        c, d = e
        xs, ys, shift = self.xs, self.ys, self.width * lane
        cx, cy = sign * xs[c], sign * ys[c]
        ux, uy = sign * xs[d] - cx, sign * ys[d] - cy
        self.ux += ux << shift
        self.uy += uy << shift
        self.k += sign * (ux * cy - uy * cx) << shift
        self.px += cx << shift
        self.py += cy << shift

    def hold(self, e: Edge) -> int:
        """Put `e` in a lane, a released one first; returns the lane."""
        if self.spare:
            lane = self.spare.pop()
            self.edges[lane] = e
        else:
            lane = len(self.edges)
            self.edges.append(e)
            self.ones += 1 << self.width * lane
            self.top |= self.bit(lane)
            self.bias = self.top - self.ones
        self.lane[e] = lane
        self._put(e, lane, 1)
        return lane

    def release(self, e: Edge) -> int:
        """Empty the lane of the held edge `e`; returns the lane."""
        lane = self.lane.pop(e)
        self._put(e, lane, -1)
        self.spare.append(lane)
        return lane

    def side(self, v: int) -> int:
        """Every held line's side value of point v, packed."""
        return self.ux * self.ys[v] - self.uy * self.xs[v] - self.k

    def crossing(self, a: int, b: int) -> int:
        """The lanes of the held edges the segment ab properly crosses."""
        xs, ys, ux, uy, k = self.xs, self.ys, self.ux, self.uy, self.k
        return self.across(a, b, ux * ys[a] - uy * xs[a] - k, ux * ys[b] - uy * xs[b] - k)

    def across(self, a: int, b: int, da: int, db: int) -> int:
        """`crossing(a, b)` from the packed side values `da` and `db`."""
        bias = self.bias
        sep = ((da + bias) & (bias - db) | (bias - da) & (db + bias)) & self.top
        if not sep:
            return 0
        xs, ys = self.xs, self.ys
        ax, ay = xs[a], ys[a]
        vx, vy = xs[b] - ax, ys[b] - ay
        kv = (vx * ay - vy * ax) * self.ones - bias
        at_c = vx * self.py - vy * self.px - kv  # each lane: its first end's side + bias
        return sep & (at_c ^ at_c + da - db)  # da - db: d's side less c's


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
        self.lanes = _Lanes(xs, ys)
        self.crossed = 0  # the lanes of held edges that a held edge crosses
        self.trail: List[int] = []  # `crossed` before each held edge was added
        self.stone: Optional[Edge] = None

    # -- incremental edge bookkeeping ----------------------------------------
    def _try_add(self, u: int, w: int) -> bool:
        """Hold the edge uw unless it is forbidden or held, or would cross
        two held edges or one already crossed: `is_one_plane`'s verdict."""
        e = edge(u, w)
        lanes = self.lanes
        if e in self.forbidden or e in lanes.lane:
            return False
        m = lanes.crossing(u, w)
        if m & m - 1 or m & self.crossed:
            return False
        lane = lanes.hold(e)
        self.trail.append(self.crossed)
        if m:
            self.crossed |= m | lanes.bit(lane)
        return True

    def _undo(self, u: int, w: int) -> None:
        """Take back uw, the edge added last."""
        self.lanes.release(edge(u, w))
        self.crossed = self.trail.pop()

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
                # the held edges are the cycle's, in the order they were added
                adj: Dict[int, List[int]] = {i: [] for i in self.left0 + self.right0}
                for a, b in self.lanes.lane:
                    adj[a].append(b)
                    adj[b].append(a)
                cyc = [self.left0[0]]
                prev = None
                while len(cyc) < n:
                    a, b = adj[cyc[-1]]
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


def _check_forbidden(forbidden) -> None:
    """Refuse a forbidden entry that is not an edge `(a, b)` with a < b:
    the engines test membership of such edges only, so any other entry
    would forbid nothing."""
    for e in forbidden:
        if type(e) is not tuple or len(e) != 2 or not e[0] < e[1]:
            raise ValueError(f"forbidden entry {e!r} is not an edge (a, b) with a < b")


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
    distinct vertices of the set (`geometry.check_subset`), a bisection
    whose two sides together are not exactly the subset, or a forbidden
    entry that is not an edge `(a, b)` with a < b.
    """
    ps = general_set(ps)
    sub = check_subset(subset, len(ps))
    _check_forbidden(forbidden)
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
    """Crossing accounting for candidate joins of two vertex-disjoint
    1-plane cycles on points in general position, on one `_Lanes` holding
    the edges of both: a fresh screen holds c1's `edges()` in lanes 0, 1,
    ..., then c2's, and `own[which]` masks cycle `which`'s lanes.  Lane
    f's `crossed[f]` masks the lanes whose edges cross its edge.

    An added edge shares one endpoint with each removed edge, so it crosses
    neither, and the screen edges it hits do not depend on the candidate:
    `hits(a)` is the `crossing` mask of `a`, memoized, as is each vertex's
    packed side value.  Both cycles are 1-plane, so a candidate
    `(r1, r2, a1, a2)` can only fail on the added edges or on an edge whose
    crossings change or already number more than 1:

    - either added edge hits two edges or more;
    - `a1` crosses `a2` and either added edge has a hit;
    - some hit edge or edge crossed twice in the union (`over`), other than
      `r1` and `r2`, ends with its crossings in `crossed[f]` other than `r1`
      and `r2`, plus its hits by `a1` and `a2`, above 1.

    The oracle decides only whether `a1` crosses `a2`.  `uncrossed` derives
    an uncross variant's screen by editing four lanes: the two created
    edges take back the two lanes the removed edges release, so `own`
    stays as the fresh screen set it.
    """

    def __init__(self, c1: HamCycle, c2: HamCycle, xs, ys, oracle: CrossingOracle):
        self.oracle = oracle
        self.cycles = (c1, c2)
        lanes = self.lanes = _Lanes(xs, ys)
        for e in c1.edges() + c2.edges():
            lanes.hold(e)
        self.crossed = [lanes.crossing(*e) for e in lanes.edges]
        first = lanes.top & (1 << lanes.width * len(c1)) - 1
        self.own = (first, lanes.top ^ first)
        self._settle()

    def _settle(self) -> None:
        bit = self.lanes.bit
        self.over = sum(bit(f) for f, m in enumerate(self.crossed) if m.bit_count() > 1)
        self._hits: Dict[Edge, int] = {}
        self._side = functools.cache(self.lanes.side)

    def uncrossed(self, which: int, nc: HamCycle, removed, created) -> "_JoinScreen":
        """This screen with cycle `which` uncrossed into `nc`: the `removed`
        edges' lanes released, the `created` edges held in them, and only
        the crossings those four lanes touch changed."""
        twin = copy.copy(self)
        twin.cycles = (nc, self.cycles[1]) if which == 0 else (self.cycles[0], nc)
        lanes = twin.lanes = copy.copy(self.lanes)
        lanes.lane, lanes.edges, lanes.spare = dict(lanes.lane), lanes.edges[:], lanes.spare[:]
        crossed = twin.crossed = self.crossed[:]
        for e in removed:
            f = lanes.release(e)
            for g in lanes.indices(crossed[f]):
                crossed[g] ^= lanes.bit(f)
            crossed[f] = 0
        for e in created:
            f = lanes.hold(e)
            m = crossed[f] = lanes.crossing(*e)
            for g in lanes.indices(m):
                crossed[g] |= lanes.bit(f)
        twin._settle()
        return twin

    def one_plane(self, which: int) -> bool:
        """Whether cycle `which` is 1-plane: none of its edges crosses two
        of its edges.  Such an edge would be crossed twice in the union, so
        only the lanes of `over` are looked at."""
        own, crossed = self.own[which], self.crossed
        for f in self.lanes.indices(own & self.over):
            if (crossed[f] & own).bit_count() > 1:
                return False
        return True

    def own_pairs(self, which: int) -> List[Tuple[Edge, Edge]]:
        """The crossing pairs within cycle `which` by ascending lanes: on a
        fresh screen, its `edges()` pairs (e_i, e_j), i < j, ascending."""
        own, lanes, edges = self.own[which], self.lanes, self.lanes.edges
        return [(edges[f], edges[g]) for f in lanes.indices(own)
                for g in lanes.indices(self.crossed[f] & own) if g > f]

    def hits(self, a: Edge) -> int:
        """The lanes of the screen edges `a` crosses."""
        h = self._hits.get(a)
        if h is None:
            u, v = a
            h = self._hits[a] = self.lanes.across(u, v, self._side(u), self._side(v))
        return h

    def candidate_ok(self, r1: Edge, r2: Edge, a1: Edge, a2: Edge) -> bool:
        """All merged-cycle crossing counts stay <= 1."""
        h1 = self.hits(a1)
        if h1 & h1 - 1:
            return False
        h2 = self.hits(a2)
        if h2 & h2 - 1:
            return False
        if (h1 or h2) and self.oracle(a1, a2):
            return False
        lanes, crossed = self.lanes, self.crossed
        kept = ~(lanes.bit(lanes.lane[r1]) | lanes.bit(lanes.lane[r2]))
        for f in lanes.indices((h1 | h2 | self.over) & kept):
            b = lanes.bit(f)
            if (crossed[f] & kept).bit_count() + (h1 == b) + (h2 == b) > 1:
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
    es1, es2 = sorted(c1.edges()), sorted(c2.edges())
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
    decided exactly on the points' integer coordinates, by one screen over
    both cycles, from which each variant's is derived.  Raises ValueError
    unless the two cycles together are distinct vertices of the set
    (`geometry.check_subset`) and every forbidden entry is an edge
    `(a, b)` with a < b.
    """
    ps = general_set(ps)
    check_subset(c1.order + c2.order, len(ps))
    _check_forbidden(forbidden)
    xs, ys = [p.x for p in ps.points], [p.y for p in ps.points]
    oracle = coordinate_oracle(ps)
    base = _JoinScreen(c1, c2, xs, ys, oracle)
    r = _plain_join(base, forbidden)
    if r:
        return r
    for which, c in enumerate((c1, c2)):
        old = set(c.edges())
        for pair in sorted(base.own_pairs(which)):
            nc = uncross(c, pair, oracle)
            created = tuple(e for e in nc.edges() if e not in old)
            if any(e in forbidden for e in created):
                continue
            screen = base.uncrossed(which, nc, pair, created)
            if not screen.one_plane(which):
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
