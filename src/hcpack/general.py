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

The packer stacks such cycles level by level: each level bisects every
part (paired ham-sandwich cuts, stone pairs kept together when possible),
builds one cycle per part, and splices them into a single cycle through
exchange moves.  Cut choices are searched depth-first across levels, so a
dead partition at the bottom backtracks into different cuts above.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence, Tuple

from .bisection import Bisection, bisecting_lines, ham_sandwich_cuts, separating_subset_line
from .cycles import HamCycle, Packing, crossing_report, is_one_plane
from .errors import (
    InvalidN,
    MarchFailed,
    NoJoinFound,
    NotSeparable,
    PackingIncomplete,
    StillCrossing,
)
from .geometry import (
    CrossingOracle,
    Edge,
    PointSet,
    convex_hull,
    coordinate_oracle,
    edge,
    segments_properly_cross,  # unused here; perfbench/tracer.py patches this name
)

NODE_CAP = 50000  # march search nodes per bisection
MAX_CUTS = 60  # bisecting lines a free march tries
PER_LEVEL_VARIANTS = 8  # cut variants tried per level
LEVEL_ATTEMPTS = 200  # level attempts one pack may make


@dataclass(frozen=True)
class Stone:
    """Terminal same-side edge of a march; constrains later cuts."""

    v: int
    w: int

    def pair(self) -> Edge:
        return edge(self.v, self.w)


@dataclass
class LevelParts:
    """Parts of one level in counter-clockwise label order; `cut_case`
    names how each part was cut for its march, once a level marched on it."""

    parts: List[Tuple[int, ...]]
    stones: Dict[int, Stone]
    cut_case: Dict[int, str] = field(default_factory=dict)


@dataclass
class PartitionTree:
    levels: List[LevelParts] = field(default_factory=list)
    used_edges: set = field(default_factory=set)


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
    tree: PartitionTree
    join_log: List[List[JoinMove]]


# ---------------------------------------------------------------------------
# ladder march


class _FlatLedger:
    """The march's edge set, grown and shrunk one edge at a time, never
    holding an edge crossed twice, on flat integer coordinates.

    Each ledger edge `(c, d)` keeps its line as `(ux, uy, k)`: a point p
    lies on the side `ux * p.y - uy * p.x - k` of c -> d.  A pair is decided
    inline exactly where `coordinate_oracle` decides it inline (the new
    edge's ends against the old edge's line, then, if they straddle it, the
    old edge's ends against the new line); any zero determinant goes to the
    oracle itself.  Pairs are visited in `is_one_plane`'s order, the new
    edge against each held edge, oldest first, so every verdict, and on
    degenerate input every CollinearOverlap, is the same.
    """

    def __init__(self, xs: List[int], ys: List[int], oracle: CrossingOracle):
        self.xs, self.ys, self.oracle = xs, ys, oracle
        self.crossed: Dict[Edge, Tuple[int, int, int, List[Edge]]] = {}

    def add(self, e: Edge) -> bool:
        """Insert `e`; refuse it if present or if any edge would then be
        crossed twice."""
        crossed = self.crossed
        if e in crossed:
            return False
        xs, ys = self.xs, self.ys
        a, b = e
        ax, ay, bx, by = xs[a], ys[a], xs[b], ys[b]
        vx, vy = bx - ax, by - ay
        k = vx * ay - vy * ax
        hit: List[Edge] = []
        for f, (ux, uy, kf, f_hits) in crossed.items():
            d1 = ux * ay - uy * ax - kf
            d2 = ux * by - uy * bx - kf
            if d1 and d2:
                if (d1 > 0) == (d2 > 0):
                    continue
                c, d = f
                d3 = vx * ys[c] - vy * xs[c] - k
                d4 = vx * ys[d] - vy * xs[d] - k
                if d3 and d4:
                    if (d3 > 0) == (d4 > 0):
                        continue
                elif not self.oracle(e, f):
                    continue
            elif a in f or b in f or not self.oracle(e, f):
                continue
            if f_hits or hit:
                return False
            hit.append(f)
        crossed[e] = (vx, vy, k, hit)
        for f in hit:
            crossed[f][3].append(e)
        return True

    def remove(self, e: Edge) -> None:
        crossed = self.crossed
        for f in crossed.pop(e)[3]:
            crossed[f][3].remove(e)


class _March:
    """One backtracking march over a fixed bisection.

    Every point gets the key `cross(d, p)` along the cut direction `d`; the
    cut separates the sides, so every right key lies on one side `bs` of
    every left key.  The coordinates are copied once into flat integer
    lists, and each side is sorted once by `(key, -dot(d, p))`.
    """

    def __init__(self, points, bisection: Bisection, forbidden):
        self.points = points
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
        self.ledger = _FlatLedger(xs, ys, coordinate_oracle(points))
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
        low-key side to the high-key side, so one pass over the sweep order
        finds it.  A zero determinant (a duplicate or collinear triple)
        hands the call to `_hull_bridge`.
        """
        if not r1 or not r2:
            return None
        if len(r1) == len(r2) == 1:
            return next(iter(r1)), next(iter(r2))
        xs, ys = self.xs, self.ys
        low, high = (r1, r2) if self.bs > 0 else (r2, r1)
        chain: List[int] = []
        for live, order in zip((low, high), self.sweep):
            for i in order:
                if i not in live:
                    continue
                px, py = xs[i], ys[i]
                while len(chain) > 1:
                    a, b = chain[-2], chain[-1]
                    ax, ay = xs[a], ys[a]
                    det = (xs[b] - ax) * (py - ay) - (ys[b] - ay) * (px - ax)
                    if det > 0:
                        break
                    if not det:
                        return self._hull_bridge(r1, r2)
                    chain.pop()
                chain.append(i)
        k = next(j for j, i in enumerate(chain) if i in high)
        a, b = chain[k - 1], chain[k]
        return (a, b) if self.bs > 0 else (b, a)

    def _hull_bridge(self, r1, r2) -> Tuple[int, int]:
        """`_bridge` read off a fresh `convex_hull`: degenerate input gets
        its pair or its DegenerateInput."""
        idx = list(r1 | r2)
        hull = [idx[h] for h in convex_hull([self.points[i] for i in idx])]
        src, dst = (r1, r2) if self.bs > 0 else (r2, r1)
        a, b = next((a, b) for a, b in zip(hull, hull[1:] + hull[:1]) if a in src and b in dst)
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
        v2 from r2."""
        v1, v2 = pair
        on_side, key = self._on_side, self.key
        moves = [
            ((e1, v2), (e2, v1), (v1, v2)),
            ((v1, e2), (v1, v2), (e1, v2)),
            ((v2, e1), (v2, v1), (v1, e2)),
        ]
        conforming = [on_side(v1, v2, -self.bs, (e1, e2))]
        for vi, ei, eo in ((v1, e1, e2), (v2, e2, e1)):
            d = key[ei] - key[vi]
            lbs = (d > 0) - (d < 0)
            conforming.append(
                lbs != 0
                and on_side(vi, ei, -lbs, (eo,))
                and on_side(vi, ei, lbs, r1)
                and on_side(vi, ei, lbs, r2)
            )
        flagged = list(zip(moves, conforming))
        return [m for m, ok in flagged if ok] + [m for m, ok in flagged if not ok]

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
) -> Tuple[HamCycle, Bisection, List[Stone]]:
    """A verified 1-plane Hamiltonian cycle on `subset` via the ladder march.

    With no bisection given, successive bisecting lines are tried until one
    admits a march.  The returned stone list is empty or a single terminal
    edge; a bare triangle reports no stone.
    """
    points = ps.points if isinstance(ps, PointSet) else tuple(ps)
    sub = sorted(subset)
    if len(sub) < 3:
        raise ValueError("need at least 3 points")
    cuts: Iterator[Bisection]
    if bisection is not None:
        cuts = iter([bisection])
    else:
        cuts = itertools.islice(bisecting_lines(points, sub), MAX_CUTS)
    last = None
    for cut in cuts:
        try:
            cyc, stone = _March(points, cut, forbidden).run()
        except MarchFailed as exc:
            last = exc
            continue
        stones = [] if stone is None or len(sub) == 3 else [Stone(stone[0], stone[1])]
        return cyc, cut, stones
    raise MarchFailed(f"no bisection admits a march: {last}")


# ---------------------------------------------------------------------------
# uncrossing and joining


def uncross(c: HamCycle, pair: Tuple[Edge, Edge], oracle: CrossingOracle) -> HamCycle:
    """Replace a crossing pair by the single-cycle reconnection.

    Of the two reconnection patterns exactly one keeps one cycle; the
    result must still verify 1-plane, else StillCrossing is raised.
    """
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
    new = HamCycle(ring[k:] + ring[k - 1 :: -1])
    if not is_one_plane(new, oracle):
        raise StillCrossing(f"uncrossing {pair} leaves a double crossing")
    return new


def _splice(c1: HamCycle, c2: HamCycle, u2: int, v2: int, pattern: int) -> HamCycle:
    """c1 read forward from `u2`, then c2 read backward from the
    predecessor of `v2` (pattern 0) or forward from `v2` (pattern 1)."""
    i, j = c1.order.index(u2), c2.order.index(v2)
    p1 = c1.order[i:] + c1.order[:i]
    p2 = c2.order[j:] + c2.order[:j]
    return HamCycle(p1 + (p2[::-1] if pattern == 0 else p2))


class _JoinScreen:
    """Crossing accounting for candidate joins of two vertex-disjoint cycles.

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

    The hits come from side masks, built once per screen with one integer
    determinant per vertex and edge: `left[w]` has a bit for each screen
    edge whose line `w` lies strictly left of, `on[w]` one for each edge
    whose line passes through `w` without ending there.  Only edges whose
    line separates the ends of `a`, or passes through one, need the two
    determinants of their own ends against `a`'s line.  Any zero
    determinant goes to the oracle, so degenerate input gets the oracle's
    answer (or its CollinearOverlap); in general position only incident
    edges give zeros, and those never cross.  The same masks give the
    screen's own crossing counts and pairs.
    """

    def __init__(
        self, c1: HamCycle, c2: HamCycle, xs: List[int], ys: List[int], oracle: CrossingOracle
    ):
        self.xs, self.ys, self.oracle = xs, ys, oracle
        self.es1, self.es2 = c1.edges(), c2.edges()
        edges = self.edges = self.es1 + self.es2
        self.index = {e: i for i, e in enumerate(edges)}
        lines = [(xs[c], ys[c], xs[d] - xs[c], ys[d] - ys[c]) for c, d in edges]
        inc = self.inc = dict.fromkeys(c1.order + c2.order, 0)
        for i, (c, d) in enumerate(edges):
            inc[c] |= 1 << i
            inc[d] |= 1 << i
        left, on = self.left, self.on = {}, {}
        for w in inc:
            wx, wy = xs[w], ys[w]
            lm = om = 0
            bit = 1
            for cx, cy, ux, uy in lines:
                det = ux * (wy - cy) - uy * (wx - cx)
                if det > 0:
                    lm |= bit
                elif not det:
                    om |= bit
                bit <<= 1
            left[w], on[w] = lm, om & ~inc[w]
        # the screen's own crossings: pair (i, j), i < j, crosses when each
        # edge's ends lie strictly on opposite sides of the other's line
        counts = self.counts = [0] * len(edges)
        crossed = self.crossed = [0] * len(edges)  # bit j of crossed[i]: i x j
        for i, (c, d) in enumerate(edges):
            zero = on[c] | on[d]
            m = ((left[c] ^ left[d]) | zero) & ~(inc[c] | inc[d]) & -(2 << i)
            while m:
                low = m & -m
                m ^= low
                j = low.bit_length() - 1
                p, q = edges[j]
                if zero & low or (on[p] | on[q]) >> i & 1:
                    hit = oracle(edges[i], edges[j])
                else:
                    hit = (left[p] ^ left[q]) >> i & 1
                if hit:
                    counts[i] += 1
                    counts[j] += 1
                    crossed[i] |= low
                    crossed[j] |= 1 << i
        self.over = tuple(i for i, c in enumerate(counts) if c > 1)
        self._hits: Dict[Edge, Tuple[int, ...]] = {}

    def hits(self, a: Edge) -> Tuple[int, ...]:
        """Indices of the first (at most 2) screen edges `a` crosses."""
        h = self._hits.get(a)
        if h is not None:
            return h
        u, v = a
        left, on, xs, ys, edges = self.left, self.on, self.xs, self.ys, self.edges
        zero = on[u] | on[v]
        m = ((left[u] ^ left[v]) | zero) & ~(self.inc[u] | self.inc[v])
        ux, uy = xs[u], ys[u]
        vx, vy = xs[v] - ux, ys[v] - uy
        found: List[int] = []
        while m:
            low = m & -m
            m ^= low
            j = low.bit_length() - 1
            c, d = edges[j]
            d3 = vx * (ys[c] - uy) - vy * (xs[c] - ux)
            d4 = vx * (ys[d] - uy) - vy * (xs[d] - ux)
            if zero & low or not d3 or not d4:
                hit = self.oracle(a, edges[j])
            else:
                hit = (d3 > 0) != (d4 > 0)
            if hit:
                found.append(j)
                if len(found) == 2:
                    break
        h = self._hits[a] = tuple(found)
        return h

    def candidate_ok(self, r1: Edge, r2: Edge, a1: Edge, a2: Edge) -> bool:
        """All merged-cycle crossing counts stay <= 1."""
        h1, h2 = self.hits(a1), self.hits(a2)
        if len(h1) > 1 or len(h2) > 1:
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


def _plain_join(c1, c2, forbidden, xs, ys, oracle, extra_uncross=()):
    """The first exchange in canonical order that avoids `forbidden` and
    that the screen accepts; the screen is exact, so its splice is 1-plane."""
    screen = _JoinScreen(c1, c2, xs, ys, oracle)
    succ1 = dict(zip(c1.order, c1.order[1:] + c1.order[:1]))
    succ2 = dict(zip(c2.order, c2.order[1:] + c2.order[:1]))
    for r1 in sorted(screen.es1):
        u1, u2 = r1 if succ1[r1[0]] == r1[1] else r1[::-1]
        for r2 in sorted(screen.es2):
            v1, v2 = r2 if succ2[r2[0]] == r2[1] else r2[::-1]
            for pattern, added in enumerate(
                ((edge(u1, v1), edge(u2, v2)), (edge(u1, v2), edge(u2, v1)))
            ):
                if added[0] in forbidden or added[1] in forbidden:
                    continue
                if not screen.candidate_ok(r1, r2, added[0], added[1]):
                    continue
                return _splice(c1, c2, u2, v2, pattern), JoinMove(
                    removed=(r1, r2), added=added, created_uncrossings=tuple(extra_uncross)
                )
    return None


def join_cycles(
    c1: HamCycle,
    c2: HamCycle,
    forbidden: FrozenSet[Edge],
    ps,
) -> Tuple[HamCycle, JoinMove]:
    """Merge two vertex-disjoint 1-plane cycles on the points `ps` (a
    PointSet or a point sequence) into one.

    Plain exchange pairs are tried in canonical order, then variants that
    first uncross one cycle, then both.  Added and created edges must avoid
    `forbidden`.  Crossings are decided exactly on the points' integer
    coordinates, through `coordinate_oracle` wherever a determinant is 0.
    """
    points = ps.points if isinstance(ps, PointSet) else tuple(ps)
    xs, ys = [p.x for p in points], [p.y for p in points]
    oracle = coordinate_oracle(points)
    r = _plain_join(c1, c2, forbidden, xs, ys, oracle)
    if r:
        return r

    def uncross_variants(c):
        for pair in sorted(crossing_report(c, oracle).pairs):
            try:
                nc = uncross(c, pair, oracle)
            except StillCrossing:
                continue
            old = set(c.edges())
            created = tuple(e for e in nc.edges() if e not in old)
            if any(e in forbidden for e in created):
                continue
            yield nc, (pair, created)

    variants = ([], [])  # each cycle's uncross variants, built once
    for which, (base, other) in enumerate(((c1, c2), (c2, c1))):
        for nc, record in uncross_variants(base):
            variants[which].append((nc, record))
            a, b = (nc, other) if which == 0 else (other, nc)
            r = _plain_join(a, b, forbidden, xs, ys, oracle, extra_uncross=[record])
            if r:
                return r
    for (nc1, rec1), (nc2, rec2) in itertools.product(*variants):
        r = _plain_join(nc1, nc2, forbidden, xs, ys, oracle, extra_uncross=[rec1, rec2])
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

    def vec(part):
        sx = sum(points[i].x for i in part)
        sy = sum(points[i].y for i in part)
        return (total * sx - len(part) * gx, total * sy - len(part) * gy)

    def cmp(p1, p2):
        v1, v2 = vec(p1), vec(p2)
        h1 = 0 if (v1[1] > 0 or (v1[1] == 0 and v1[0] > 0)) else 1
        h2 = 0 if (v2[1] > 0 or (v2[1] == 0 and v2[0] > 0)) else 1
        if h1 != h2:
            return -1 if h1 < h2 else 1
        c = v1[0] * v2[1] - v1[1] * v2[0]
        if c != 0:
            return -1 if c > 0 else 1
        return -1 if min(p1) < min(p2) else 1

    return sorted(parts, key=functools.cmp_to_key(cmp))


def _nth(it, idx):
    return next(itertools.islice(it, idx, None), None)


def _bisection_from_cut(e, cls_left, part) -> Bisection:
    left = tuple(i for i in part if i in cls_left)
    right = tuple(i for i in part if i not in cls_left)
    if len(left) < len(right):
        left, right = right, left
    return Bisection(e, left, right)


def _next_level(cuts, points) -> Tuple[List[Tuple[int, ...]], Dict[int, Stone]]:
    """The halves of each (cut, stones) pair in ccw order, and the stone
    each half keeps."""
    parts = _ccw_part_order(
        [tuple(sorted(half)) for cut, _ in cuts for half in (cut.left, cut.right)], points
    )
    part_of = {i: pi for pi, p in enumerate(parts) for i in p}
    stones: Dict[int, Stone] = {}
    for _, sts in cuts:
        for st in sts:
            if part_of[st.v] == part_of[st.w]:
                stones[part_of[st.v]] = st
    return parts, stones


def _fold(cycles: List[HamCycle], used, points) -> Tuple[HamCycle, List[JoinMove]]:
    """Join the part cycles into one, greedily in ccw order; a stuck fold
    restarts from the next seed cycle."""
    last_err: Optional[Exception] = None
    for seed in range(len(cycles)):
        rest = cycles[:seed] + cycles[seed + 1 :]
        merged, moves = cycles[seed], []
        while rest:
            for j, c in enumerate(rest):
                try:
                    merged, mv = join_cycles(merged, c, used, points)
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


def _run_level(points, parts, stones, used, variant):
    """One attempt at a level: marches per part plus the joining fold."""
    part_cuts: List[Optional[Bisection]] = [None] * len(parts)
    cut_case: Dict[int, str] = {}
    for t in range(0, len(parts), 2):
        # the stone's part goes first, so its pair stays on one side
        first = t + 1 if t not in stones and t + 1 in stones else t
        st, other = stones.get(first), stones.get(first ^ 1)
        pair = st.pair() if st else None
        hs = _nth(ham_sandwich_cuts(points, parts[first], parts[first ^ 1], pair=pair), variant)
        if hs is None:
            continue
        # the points of l1 and l2 hold exactly the larger keys cross(e, p)
        e, (l1, _, l2, _) = hs
        left_all = set(l1) | set(l2)
        if other is not None and (other.v in left_all) != (other.w in left_all):
            continue
        for pi in (t, t + 1):
            part_cuts[pi] = _bisection_from_cut(e, left_all, parts[pi])
            cut_case[pi] = "case1" if st else "ham-sandwich"
    part_cycles: List[HamCycle] = []
    child_cuts = []
    for pi, part in enumerate(parts):
        st = stones.get(pi)
        cut = part_cuts[pi]
        if cut is None and st is not None:
            # separating-line fallback: split off a balanced stone-side subset
            try:
                e, grown = separating_subset_line(
                    points, part, (st.v, st.w), (len(part) + 1) // 2
                )
            except NotSeparable:
                pass
            else:
                cut = _bisection_from_cut(e, set(grown), part)
                cut_case[pi] = "case2"
        try:
            cyc, used_cut, new_stones = march_cycle(points, part, bisection=cut, forbidden=used)
        except MarchFailed:
            if cut is None:
                raise
            # the assigned cut admits no march; let the part pick its own
            cut = None
            cyc, used_cut, new_stones = march_cycle(points, part, forbidden=used)
        if cut is None:
            cut_case[pi] = "unconstrained"
        part_cycles.append(cyc)
        child_cuts.append((used_cut, new_stones))
    merged, moves = _fold(part_cycles, used, points)
    parts_out, stones_out = _next_level(child_cuts, points)
    return merged, moves, parts_out, stones_out, cut_case


def pack_general_detailed(ps) -> GeneralPackResult:
    """At least k-1 edge-disjoint 1-plane Hamiltonian cycles on n = 2^k + h
    points.

    The search keeps one path of levels, each entry a level's cycle, its
    join moves and the parts the next level marches on.  Each level tries
    up to PER_LEVEL_VARIANTS cut variants depth-first; a level whose parts
    cannot host a fresh cycle is popped, so the search backtracks into
    different cuts above.  The whole pack makes at most LEVEL_ATTEMPTS
    level attempts below level 1.  Raises InvalidN below 4 points, and
    PackingIncomplete (with the longest path's cycles) if the search ends
    without reaching k-1 cycles.
    """
    points = ps.points if isinstance(ps, PointSet) else tuple(ps)
    n = len(points)
    k = n.bit_length() - 1
    if k < 2:
        raise InvalidN(f"general packing needs n >= 4, got {n}")
    counter = 0
    last_err: Optional[Exception] = None
    best: List[HamCycle] = []
    path: List[Tuple[HamCycle, List[JoinMove], LevelParts]] = []

    def solve(used) -> bool:
        """Extend the path to k-1 levels.  A failed call may leave a stale
        cut_case on path[-1]; its caller pops that entry."""
        nonlocal counter, last_err, best
        if len(path) > len(best):
            best = [c for c, _, _ in path]
        if len(path) >= k - 1:
            return True
        marched = path[-1][2]
        for variant in range(PER_LEVEL_VARIANTS):
            if counter >= LEVEL_ATTEMPTS:
                return False
            counter += 1
            try:
                merged, moves, parts, stones, marched.cut_case = _run_level(
                    points, marched.parts, marched.stones, used, variant
                )
            except (MarchFailed, NoJoinFound) as exc:
                last_err = exc
                continue
            path.append((merged, moves, LevelParts(parts, stones)))
            if solve(used | set(merged.edges())):
                return True
            path.pop()
        return False

    for cuts in itertools.islice(bisecting_lines(points, range(n)), PER_LEVEL_VARIANTS):
        try:
            cyc, cut, stones = march_cycle(points, range(n), bisection=cuts)
        except MarchFailed as exc:
            last_err = exc
            continue
        path.append((cyc, [], LevelParts(*_next_level([(cut, stones)], points))))
        if solve(set(cyc.edges())):
            cycles, join_log, levels = zip(*path)
            tree = PartitionTree(list(levels), set().union(*(c.edges() for c in cycles)))
            return GeneralPackResult(Packing(cycles), tree, list(join_log))
        path.pop()
    raise PackingIncomplete(
        f"search exhausted ({counter} level attempts): {last_err}",
        level=len(best) + 1,
        cycles=best,
    )


def pack_general(ps) -> Packing:
    return pack_general_detailed(ps).packing
