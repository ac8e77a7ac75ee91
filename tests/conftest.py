import math
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


class CountingRing(RingOracle):
    """A ring oracle that counts the pairs it is asked to decide."""

    def __init__(self, base):
        super().__init__(base.m, base.label, base.wheel)
        self.calls = 0

    def __call__(self, e1, e2):
        self.calls += 1
        return super().__call__(e1, e2)


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
