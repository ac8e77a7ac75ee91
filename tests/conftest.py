import math
import random
from functools import lru_cache

import pytest

from hcpack import Config, Point, PointSet, enumerate_1phc, generate
from hcpack.geometry import RingOracle


def regular_polygon_points(n, radius=10**6, twist=True):
    """Fine-grid regular n-gon for cross-checking combinatorial oracles."""
    pts = []
    for i in range(n):
        ang = 2 * math.pi * i / n + (math.pi / (4 * n) if twist else 0)
        pts.append(Point(round(radius * math.cos(ang)), round(radius * math.sin(ang))))
    return pts


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


def degenerate_lists():
    """300 seeded point lists on small grids, with duplicates and collinear
    triples: n = 5..14, coordinates 0..g for g = 2..6."""
    for seed in range(300):
        rng = random.Random(seed)
        n, g = rng.randint(5, 14), rng.randint(2, 6)
        yield seed, [Point(rng.randint(0, g), rng.randint(0, g)) for _ in range(n)]


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
