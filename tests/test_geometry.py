import random
from itertools import combinations, permutations

import pytest
from hypothesis import given, strategies as st

from hcpack import (
    Config,
    Orientation,
    Point,
    PointSet,
    convex_cross,
    convex_hull,
    coordinate_oracle,
    edge,
    in_general_position,
    orientation,
    segments_properly_cross,
    wheel_cross,
    wheel_oracle,
)
from hcpack.errors import CollinearOverlap, ConfigMismatch, DegenerateInput, SharedEndpoint
from hcpack.geometry import RingOracle, check_subset

from conftest import general_position_subset, regular_polygon_points

coords = st.integers(min_value=-1000, max_value=1000)
points = st.builds(Point, coords, coords)


def test_orientation_basic():
    assert orientation(Point(0, 0), Point(1, 0), Point(0, 1)) is Orientation.CCW
    assert orientation(Point(0, 0), Point(1, 1), Point(2, 2)) is Orientation.COLLINEAR
    assert orientation(Point(0, 0), Point(0, 1), Point(1, 0)) is Orientation.CW


def test_check_subset_sorts_or_refuses():
    assert check_subset([3, 0, 2], 4) == [0, 2, 3]
    assert check_subset(range(5), 5) == [0, 1, 2, 3, 4]
    assert check_subset([], 0) == []
    # a float or a bool is not a vertex, whatever value it compares equal to
    for bad in ([-1, 0, 1], [0, 1, 4], [1, 2, 2], [0, 0], [0.5, 1, 2], [1.0, 2, 3],
                [True, 2, 3], [0, False]):
        with pytest.raises(ValueError, match=r"subset vertices must be distinct and in 0\.\.3"):
            check_subset(bad, 4)


@given(points, points, points)
def test_orientation_antisymmetric(p, q, r):
    assert orientation(p, q, r) == -orientation(p, r, q)


def test_orientation_huge_coordinates_exact():
    # a one-unit offset at 10**30 scale is invisible to doubles
    big = 10**30
    assert (
        orientation(Point(0, 0), Point(big, big), Point(2 * big, 2 * big + 1))
        is Orientation.CCW
    )
    assert (
        orientation(Point(0, 0), Point(big, big), Point(2 * big, 2 * big))
        is Orientation.COLLINEAR
    )


def test_segments_cross_examples():
    assert segments_properly_cross(
        (Point(0, 0), Point(2, 2)), (Point(0, 2), Point(2, 0))
    )
    assert not segments_properly_cross(
        (Point(0, 0), Point(1, 1)), (Point(1, 1), Point(2, 0))
    )
    assert not segments_properly_cross(
        (Point(0, 0), Point(1, 0)), (Point(0, 1), Point(1, 1))
    )


def test_segments_collinear_overlap_raises():
    with pytest.raises(CollinearOverlap):
        segments_properly_cross((Point(0, 0), Point(4, 0)), (Point(1, 0), Point(3, 0)))


@given(points, points, points, points)
def test_segments_cross_symmetric(a, b, c, d):
    if len({a, b, c, d}) < 4 or a == b or c == d:
        return
    try:
        r1 = segments_properly_cross((a, b), (c, d))
    except CollinearOverlap:
        with pytest.raises(CollinearOverlap):
            segments_properly_cross((c, d), (a, b))
        return
    assert r1 == segments_properly_cross((c, d), (a, b))


def test_zero_length_segment_is_decided_the_same_either_way_round():
    # a duplicate point is a zero-length segment: it overlaps only a
    # segment whose line holds it between the ends, in either argument order
    seg = (Point(0, 0), Point(2, 2))
    for p, overlaps in ((Point(1, 1), True), (Point(1, 0), False), (Point(3, 3), False)):
        for e1, e2 in ((seg, (p, p)), ((p, p), seg)):
            if overlaps:
                with pytest.raises(CollinearOverlap):
                    segments_properly_cross(e1, e2)
            else:
                assert not segments_properly_cross(e1, e2)


def _assert_oracle_matches_segments(pts):
    """`coordinate_oracle` on every ordered pair of index edges, shared
    indices included, against `segments_properly_cross` on the points."""
    orc = coordinate_oracle(pts)
    edges = list(permutations(range(len(pts)), 2))
    seen = set()
    for e1 in edges:
        for e2 in edges:
            want = segments_properly_cross((pts[e1[0]], pts[e1[1]]), (pts[e2[0]], pts[e2[1]]))
            assert orc(e1, e2) == want, (pts, e1, e2)
            seen.add(want)
    return seen


def test_coordinate_oracle_matches_segments_on_a_tiny_grid():
    # general-position sets on a 6 x 6 grid: shared indices, parallel
    # edges and near misses are common
    rng = random.Random(5)
    for _ in range(12):
        drawn = [Point(rng.randrange(6), rng.randrange(6)) for _ in range(30)]
        pts = general_position_subset(drawn)[:8]
        assert len(pts) >= 6
        assert _assert_oracle_matches_segments(pts) == {True, False}


def test_coordinate_oracle_matches_segments_near_1e30():
    # coordinates one unit apart at 10**30, where doubles cannot tell them
    big = 10**30
    values = (-big, -big + 1, 0, 1, big - 1, big)
    rng = random.Random(6)
    seen = set()
    for _ in range(12):
        drawn = [Point(rng.choice(values), rng.choice(values)) for _ in range(30)]
        pts = general_position_subset(drawn)[:8]
        assert len(pts) >= 5
        seen |= _assert_oracle_matches_segments(pts)
    assert seen == {True, False}
    # (0, 0)-(2B, 2B + 1) passes half a unit above (B, B) and below
    # (B + 1, B + 2); (B - 1, B + 1) lies above it too
    pts = [Point(0, 0), Point(2 * big, 2 * big + 1), Point(big, big),
           Point(big + 1, big + 2), Point(big - 1, big + 1)]
    assert in_general_position(pts)
    orc = coordinate_oracle(pts)
    assert orc((0, 1), (2, 3))
    assert not orc((0, 1), (3, 4))
    assert _assert_oracle_matches_segments(pts) == {True, False}


def test_convex_cross_examples():
    assert convex_cross(6, (0, 2), (1, 4))
    assert not convex_cross(6, (0, 2), (3, 5))
    assert not convex_cross(5, (0, 1), (2, 4))


def test_convex_cross_shared_endpoint_raises():
    with pytest.raises(SharedEndpoint):
        convex_cross(6, (0, 2), (2, 4))


@pytest.mark.parametrize("n", range(4, 13))
def test_convex_cross_agrees_with_coordinates(n):
    pts = regular_polygon_points(n)
    for e1, e2 in combinations(combinations(range(n), 2), 2):
        if set(e1) & set(e2):
            continue
        want = segments_properly_cross(
            (pts[e1[0]], pts[e1[1]]), (pts[e2[0]], pts[e2[1]])
        )
        assert convex_cross(n, e1, e2) == want


def test_wheel_cross_examples():
    assert wheel_cross(13, (13, 0), (12, 1))
    assert not wheel_cross(13, (13, 0), (1, 2))
    assert not wheel_cross(13, (13, 0), (13, 5))


def test_wheel_cross_shared_rim_endpoint_raises():
    with pytest.raises(SharedEndpoint):
        wheel_cross(13, (0, 5), (5, 9))


@pytest.mark.parametrize("m", [5, 7, 9, 11, 13])
def test_wheel_cross_agrees_with_coordinates(m):
    pts = regular_polygon_points(m) + [Point(0, 0)]
    edges = list(combinations(range(m + 1), 2))
    for e1, e2 in combinations(edges, 2):
        if set(e1) & set(e2):
            continue
        want = segments_properly_cross(
            (pts[e1[0]], pts[e1[1]]), (pts[e2[0]], pts[e2[1]])
        )
        assert wheel_cross(m, e1, e2) == want, (m, e1, e2)


def test_wheel_oracle_relabels_center():
    # same wheel, center listed first instead of last
    m = 7
    rim = regular_polygon_points(m)
    orc = wheel_oracle(m + 1, center_index=0)
    shifted = lambda e: tuple(sorted(v for v in e))
    # radial (center,1st rim) vs far chord crosses iff rim index inside arc
    assert orc((0, 1), (7, 2)) == wheel_cross(m, (7, 0), (6, 1))


def test_convex_hull_examples():
    square = [Point(0, 0), Point(10, 0), Point(10, 10), Point(0, 10), Point(4, 5)]
    hull = convex_hull(square)
    assert sorted(hull) == [0, 1, 2, 3]
    tri = [Point(0, 0), Point(5, 1), Point(2, 7)]
    assert sorted(convex_hull(tri)) == [0, 1, 2]
    with pytest.raises(DegenerateInput):
        convex_hull([Point(0, 0), Point(1, 1), Point(2, 2)])


@given(st.lists(points, min_size=3, max_size=12, unique=True))
def test_convex_hull_contains_all(pts):
    if not in_general_position(pts):
        return
    hull = convex_hull(pts)
    n = len(hull)
    for p in pts:
        for i in range(n):
            a, b = pts[hull[i]], pts[hull[(i + 1) % n]]
            assert orientation(a, b, p) in (Orientation.CCW, Orientation.COLLINEAR)


def test_point_set_validation():
    with pytest.raises(DegenerateInput):
        PointSet((Point(0, 0), Point(1, 1), Point(2, 2)))
    sq = (Point(0, 0), Point(10, 1), Point(9, 11), Point(-1, 10))
    ps = PointSet(sq, Config.CONVEX)
    assert len(ps) == 4
    with pytest.raises(DegenerateInput):
        PointSet((sq[0], sq[2], sq[1], sq[3]), Config.CONVEX)


SQUARE = (Point(0, 0), Point(10, 1), Point(9, 11), Point(-1, 10))


@pytest.mark.parametrize("build, exc, says", [
    (lambda: Point(0, 0.5), TypeError, "coordinates must be integers"),
    (lambda: edge(3, 3), ValueError, "two distinct vertices"),
    (lambda: PointSet(SQUARE[:2]), DegenerateInput, "at least 3 points"),
    (lambda: PointSet(SQUARE).rim_order(), ConfigMismatch, "needs a wheel set"),
    (lambda: convex_cross(6, (0, 2), (1, 6)), ValueError, "out of range"),
    (lambda: wheel_cross(12, (0, 2), (1, 5)), ValueError, "rim count must be odd"),
    (lambda: RingOracle(12, range(13), True), ValueError, "rim count must be odd"),
    # all collinear: the hull refuses them, so they are not in convex order
    (lambda: PointSet([Point(i, 2 * i) for i in range(4)], Config.CONVEX), DegenerateInput,
     "not in ccw convex order"),
], ids=["float-coordinate", "loop-edge", "two-points", "rim-of-a-general-set",
        "convex-index-out-of-range", "even-wheel-rim", "even-ring-oracle-rim",
        "collinear-convex-set"])
def test_validation_refuses(build, exc, says):
    with pytest.raises(exc, match=says):
        build()
