import math
import random
from functools import lru_cache, reduce
from itertools import combinations

import pytest

from hcpack import (
    Config, Orientation, Point, PointSet, enumerate_1phc, generate, in_general_position, orientation,
)
from hcpack.errors import DegenerateInput
from hcpack.geometry import RingOracle, line_direction


def regular_polygon_points(n, radius=10**6, twist=True):
    """Fine-grid regular n-gon for cross-checking combinatorial oracles."""
    pts = []
    for i in range(n):
        ang = 2 * math.pi * i / n + (math.pi / (4 * n) if twist else 0)
        pts.append(Point(round(radius * math.cos(ang)), round(radius * math.sin(ang))))
    return pts


def reference_convex_hull(points):
    """Monotone chain asking `orientation` of the points themselves: the
    reference the flat-integer `convex_hull` must match, index for index
    and message for message."""
    if len(points) < 3:
        raise DegenerateInput("hull needs at least 3 points")
    order = sorted(range(len(points)), key=lambda i: (points[i].x, points[i].y))

    def build(idx):
        chain = []
        for i in idx:
            while len(chain) >= 2 and orientation(
                points[chain[-2]], points[chain[-1]], points[i]
            ) != Orientation.CCW:
                chain.pop()
            chain.append(i)
        return chain

    hull = build(order)[:-1] + build(reversed(order))[:-1]
    if len(hull) < 3:
        raise DegenerateInput("all points collinear")
    return hull


def keys_separate(points, direction, above, below):
    """True iff every key `cross(direction, p)` of `above` exceeds every
    key of `below`: the cut splits the points strictly."""
    dx, dy = direction
    key = lambda i: dx * points[i].y - dy * points[i].x
    return not above or not below or min(map(key, above)) > max(map(key, below))


class CountingRing(RingOracle):
    """A ring oracle that counts the pairs it is asked to decide."""

    def __init__(self, base):
        super().__init__(base.m, base.label, base.wheel)
        self.calls = 0

    def __call__(self, e1, e2):
        self.calls += 1
        return super().__call__(e1, e2)


class CrossLedger:
    """Reference for the one-plane rule, kept edge by edge: an edge set
    grown and shrunk one edge at a time, never holding an edge crossed
    twice.  `crossed[e]` lists the ledger edges that properly cross `e`."""

    def __init__(self, oracle):
        self.oracle = oracle
        self.crossed = {}

    def add(self, e):
        """Insert `e`; refuse it if present or if any edge would then be
        crossed twice."""
        if e in self.crossed:
            return False
        a, b = e
        hit = []
        for f, f_hits in self.crossed.items():
            if a in f or b in f:
                continue
            if self.oracle(e, f):
                if f_hits or hit:
                    return False
                hit.append(f)
        self.crossed[e] = hit
        for f in hit:
            self.crossed[f].append(e)
        return True

    def remove(self, e):
        for f in self.crossed.pop(e):
            self.crossed[f].remove(e)


def reference_max_packing(edge_ids, n):
    """Reference for the exact packing search: the index-order branch and
    bound it replaced.  The first maximum packing in index order of the
    cycles with these edge ids, and the nodes visited.  `holders[e]` is
    the bitset of the cycles using edge id e, `at[x]` the holders of the
    edges at vertex x, and `clash[i]` the cycles sharing an edge with cycle
    i, i included.  A child that needs `more` cycles to beat the best is
    entered only if it has `more` candidates and, at every vertex, 2 *
    `more` edges held by some candidate."""
    holders = [0] * (n * (n - 1) // 2)
    for i, ids in enumerate(edge_ids):
        for e in ids:
            holders[e] |= 1 << i
    at = [[h for h, p in zip(holders, combinations(range(n), 2)) if x in p] for x in range(n)]
    clash = [reduce(int.__or__, map(holders.__getitem__, ids)) for ids in edge_ids]
    best = []
    chosen = []
    nodes = 0

    def rec(cands):
        nonlocal best, nodes
        nodes += 1
        if len(chosen) > len(best):
            best = list(chosen)
        while cands:
            low = cands & -cands
            cands ^= low
            i = low.bit_length() - 1
            sub = cands & ~clash[i]
            more = len(best) - len(chosen)  # further cycles the child needs to beat the best
            if sub.bit_count() < more:
                continue
            if any(sum(1 for h in hs if h & sub) < 2 * more for hs in at):
                continue
            chosen.append(i)
            rec(sub)
            chosen.pop()

    rec((1 << len(edge_ids)) - 1)
    return best, nodes


def degenerate_lists():
    """300 seeded point lists on small grids, with duplicates and collinear
    triples: n = 5..14, coordinates 0..g for g = 2..6."""
    for seed in range(300):
        rng = random.Random(seed)
        n, g = rng.randint(5, 14), rng.randint(2, 6)
        yield seed, [Point(rng.randint(0, g), rng.randint(0, g)) for _ in range(n)]


def general_position_subset(points):
    """The points kept in order while they stay in general position: a
    point repeating a kept one, or on a line through two kept ones, is
    dropped."""
    kept = []
    for p in points:
        if in_general_position(kept + [p]):
            kept.append(p)
    return kept


def has_parallel_pairs(points):
    """Two pairs of the points span parallel lines.  In general position
    the two pairs are disjoint, and each pair's points tie in the keys
    `cross(d, p)` of the other's direction `d`."""
    dirs = [line_direction(q.x - p.x, q.y - p.y) for p, q in combinations(points, 2)]
    return len(set(dirs)) < len(dirs)


@lru_cache(maxsize=None)
def convex_instance(n):
    return generate(Config.CONVEX, n, seed=7).to_point_set()


@lru_cache(maxsize=None)
def wheel_instance(n):
    return generate(Config.WHEEL, n, seed=7).to_point_set()


@lru_cache(maxsize=None)
def general_instance(n, seed):
    return generate(Config.GENERAL, n, seed=seed).to_point_set()


@lru_cache(maxsize=None)
def enumerated(config_name, n):
    """Cached exhaustive 1-PHC lists shared across test modules."""
    ps = convex_instance(n) if config_name == "convex" else wheel_instance(n)
    return tuple(enumerate_1phc(ps, max_n=10))


@pytest.fixture
def reference_13_points():
    """The 13-point instance used for the march regression (x10 grid)."""
    coords = [
        (15, 15), (-17, 11), (30, 6), (-20, -7), (16, -5), (-2, -12),
        (-25, -17), (37, -10), (-5, -26), (17, -27), (-19, -37), (40, -24),
        (10, -35),
    ]
    return PointSet(tuple(Point(x, y) for x, y in coords), Config.GENERAL)
