import random

import pytest

from hcpack import (
    Point,
    bisecting_line,
    separating_subset_line,
)
from hcpack.bisection import Bisection, bisecting_lines, ham_sandwich_cuts
from hcpack.errors import DegenerateInput, NotSeparable

from conftest import general_instance, keys_separate


def test_bisecting_line_two_points():
    ps = general_instance(3, 1)
    bi = bisecting_line(ps, [0, 1])
    assert len(bi.left) == 1 and len(bi.right) == 1


def test_bisecting_line_square():
    pts = [Point(0, 0), Point(10, 1), Point(11, 10), Point(1, 11)]
    bi = bisecting_line(pts, range(4))
    assert len(bi.left) == 2 and len(bi.right) == 2


@pytest.mark.parametrize("n,seed", [(5, 0), (8, 1), (13, 2), (20, 3), (33, 4)])
def test_bisecting_line_invariants(n, seed):
    ps = general_instance(n, seed)
    bi = bisecting_line(ps, range(n))
    assert len(bi.left) - len(bi.right) in (0, 1)
    # the direction's keys reproduce the returned split exactly, no tie
    assert keys_separate(ps.points, bi.direction, bi.left, bi.right)


def test_bisection_rejects_a_zero_direction():
    with pytest.raises(ValueError):
        Bisection((0, 0), (0,), (1,))


def test_bisecting_lines_are_distinct_splits():
    ps = general_instance(10, 5)
    seen = set()
    for bi in list(bisecting_lines(ps, range(10)))[:12]:
        assert bi.left not in seen
        seen.add(bi.left)


@pytest.mark.parametrize("seed", range(6))
def test_ham_sandwich_counts(seed):
    ps = general_instance(16, seed)
    s1, s2 = list(range(8)), list(range(8, 16))
    e, parts = next(ham_sandwich_cuts(ps, s1, s2))
    s1l, s1r, s2l, s2r = parts
    assert sorted(s1l + s1r) == s1 and sorted(s2l + s2r) == s2
    assert keys_separate(ps.points, e, s1l + s2l, s1r + s2r)
    assert abs(len(s1l) - len(s1r)) <= 1
    assert abs(len(s2l) - len(s2r)) <= 1


def test_ham_sandwich_odd_sets():
    ps = general_instance(15, 9)
    s1, s2 = list(range(7)), list(range(7, 15))
    _, parts = next(ham_sandwich_cuts(ps, s1, s2))
    assert abs(len(parts[0]) - len(parts[1])) == 1  # |s1| = 7
    assert len(parts[2]) == len(parts[3])  # |s2| = 8


def test_ham_sandwich_singletons():
    ps = general_instance(4, 2)
    _, parts = next(ham_sandwich_cuts(ps, [0], [1]))
    assert len(parts[0]) + len(parts[1]) == 1
    assert len(parts[2]) + len(parts[3]) == 1


def test_ham_sandwich_rejects_overlapping_sets():
    ps = general_instance(8, 3)
    with pytest.raises(ValueError):
        next(ham_sandwich_cuts(ps, [0, 1, 2, 3], [3, 4, 5, 6]))


def test_constrained_ham_sandwich_keeps_pair_together():
    ps = general_instance(16, 11)
    s1, s2 = list(range(8)), list(range(8, 16))
    found = 0
    for pair in [(0, 1), (2, 5), (3, 7)]:
        res = next(ham_sandwich_cuts(ps, s1, s2, pair=pair), None)
        if res is None:
            continue
        found += 1
        _, parts = res
        s1l = set(parts[0])
        assert (pair[0] in s1l) == (pair[1] in s1l)
        assert abs(len(parts[0]) - len(parts[1])) <= 1
    assert found > 0


def test_separating_subset_line_base_case():
    ps = general_instance(8, 4)
    pts = ps.points
    xs = sorted(range(8), key=lambda i: (pts[i].x, pts[i].y))
    pair = (xs[0], xs[1])
    _, grown = separating_subset_line(ps, range(8), pair, target_size=2)
    assert set(grown) == set(pair)


def test_separating_subset_line_balanced_growth():
    ps = general_instance(12, 8)
    pts = ps.points
    xs = sorted(range(12), key=lambda i: (pts[i].x, pts[i].y))
    pair = (xs[0], xs[1])
    e, grown = separating_subset_line(ps, range(12), pair, target_size=6)
    assert len(grown) == 6 and set(pair) <= set(grown)
    assert keys_separate(pts, e, grown, [i for i in range(12) if i not in grown])


def test_separating_subset_line_not_separable():
    # the pair strictly inside the hull of the rest cannot be cut off
    pts = [Point(0, 0), Point(100, 3), Point(50, 90), Point(48, 30), Point(52, 33)]
    with pytest.raises(NotSeparable):
        separating_subset_line(pts, range(5), (3, 4), target_size=2)


def test_constrained_ham_sandwich_absent_when_pair_straddles_everything():
    # pair at opposite extremes of s1: every simultaneous bisection must
    # separate them, so the constrained search comes back empty
    pts = [
        Point(-1000, 0), Point(-990, 31), Point(990, 17), Point(1000, 53),
        Point(-50, 200), Point(10, -210), Point(40, 190), Point(-30, -195),
    ]
    s1, s2 = [0, 1, 2, 3], [4, 5, 6, 7]
    unconstrained = list(ham_sandwich_cuts(pts, s1, s2))
    assert unconstrained, "sanity: plain cuts exist"
    for _e, parts in unconstrained:
        assert (0 in parts[0]) != (3 in parts[0])
    assert next(ham_sandwich_cuts(pts, s1, s2, pair=(0, 3)), None) is None


def test_ham_sandwich_two_against_two():
    pts = [Point(-100, -50), Point(-100, 50), Point(100, -47), Point(100, 53)]
    _, parts = next(ham_sandwich_cuts(pts, [0, 1], [2, 3]))
    assert len(parts[0]) == len(parts[1]) == 1
    assert len(parts[2]) == len(parts[3]) == 1


def full_scan_cuts(points, s1, s2, pair=None):
    """Reference ham_sandwich_cuts: each direction's order sorted by a key
    per point, then every prefix length tested for balance."""
    from hcpack.bisection import _cross, _pair_directions, _tilted

    s1, s2 = sorted(s1), sorted(s2)
    both, seen = s1 + s2, set()
    for d, sense in _pair_directions(points, s1, s2):
        e = _tilted(points, both, d, sense)
        order = sorted(both, key=lambda i: -_cross(e, points[i]))
        for t in range(1, len(both)):
            left = set(order[:t])
            l1 = len(left & set(s1))
            if abs(2 * l1 - len(s1)) > 1 or abs(2 * (t - l1) - len(s2)) > 1:
                continue
            if pair is not None and (pair[0] in left) != (pair[1] in left):
                continue
            if frozenset(left) in seen:
                continue
            seen.add(frozenset(left))
            assert keys_separate(points, e, order[:t], order[t:])
            yield e, (
                tuple(i for i in s1 if i in left),
                tuple(i for i in s1 if i not in left),
                tuple(i for i in s2 if i in left),
                tuple(i for i in s2 if i not in left),
            )


@pytest.mark.parametrize("seed", range(12))
def test_ham_sandwich_stream_matches_a_full_prefix_scan(seed):
    from hcpack.bisection import ham_sandwich_cuts

    rng = random.Random(seed)
    n = rng.randint(2, 16)
    points = general_instance(n, 200 + seed).points
    idx = rng.sample(range(n), n)
    cut = rng.randint(1, n - 1)
    s1, s2 = idx[:cut], idx[cut:]
    pairs = [None] + ([tuple(rng.sample(s1, 2))] if len(s1) > 1 else [])
    for pair in pairs:
        want = list(full_scan_cuts(points, s1, s2, pair))
        assert list(ham_sandwich_cuts(points, s1, s2, pair=pair)) == want, (s1, s2, pair)


from hypothesis import given, settings, strategies as st

small_points = st.lists(
    st.tuples(st.integers(-8, 8), st.integers(-8, 8)),
    min_size=2,
    max_size=12,
)


@given(small_points, st.integers(0, 10_000))
@settings(max_examples=300, deadline=None)
def test_cut_engine_exact_on_tiny_grids(raw, dseed):
    # tiny grids force cross-value ties; duplicate points force split pairs
    from hcpack.bisection import cut_at

    pts = [Point(x, y) for x, y in raw]
    n = len(pts)
    i, j = dseed % n, (dseed // n) % n
    if i == j:
        j = (j + 1) % n
    d = (pts[j].x - pts[i].x, pts[j].y - pts[i].y)
    sense = 1 if dseed % 2 else -1
    left_count = 1 + dseed % (n - 1)
    try:
        bi = cut_at(pts, range(n), d, sense, left_count)
    except DegenerateInput:
        assert len(set(pts)) < n, "only a duplicate pair may stop a cut"
        return
    assert len(bi.left) == left_count
    assert keys_separate(pts, bi.direction, bi.left, bi.right)
