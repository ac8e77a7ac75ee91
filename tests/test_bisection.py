import random
from itertools import combinations

import pytest

from hcpack import (
    HamCycle,
    Point,
    bisecting_line,
    coordinate_oracle,
    join_cycles,
    march_cycle,
    separating_subset_line,
)
from hcpack.bisection import Bisection, bisecting_lines, cut_at, ham_sandwich_cuts
from hcpack.errors import DegenerateInput, NotSeparable

from conftest import general_instance, general_position_subset, has_parallel_pairs, keys_separate


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


@pytest.mark.parametrize("sense", [0, 2, -2, 1.0, True])
def test_cut_at_refuses_a_sense_that_is_not_plus_or_minus_one(sense):
    """Sense 0 would skip the tilt: on these points with d = (1, 0), the
    left keys {0, 5} and the right keys {0, -4} would tie across the cut."""
    pts = [Point(0, 0), Point(10, 0), Point(3, 5), Point(7, -4)]
    with pytest.raises(ValueError, match="sense must be 1 or -1"):
        cut_at(pts, range(4), (1, 0), sense, 2)


@pytest.mark.parametrize("left_count", [-1, 0, 8, 9, 2.0, True])
def test_cut_at_refuses_a_left_count_that_leaves_a_side_empty(left_count):
    """Without the check, -1 would split 7/1 and 0 would leave the left side
    empty."""
    with pytest.raises(ValueError, match=r"left_count must be in 1\.\.7"):
        cut_at(general_instance(8, 1), range(8), (1, 2), 1, left_count)


def test_bisection_rejects_a_zero_direction():
    with pytest.raises(ValueError):
        Bisection((0, 0), (0,), (1,))


def test_cut_at_refuses_a_zero_direction():
    """A zero direction gets `Bisection`'s ValueError, not a stray
    ZeroDivisionError from making it primitive."""
    with pytest.raises(ValueError, match="direction must be nonzero"):
        cut_at(general_instance(6, 1), range(6), (0, 0), 1, 3)


@pytest.mark.parametrize("d", [(1.0, 2), (1, True), (4.47e18, 1.46e18), (1, 2, 3), "12"])
def test_a_cut_direction_must_be_two_ints(d):
    """Keys `cross(d, p)` are exact on ints only: a float direction would
    key points in floating point (inexact past 2^53), and `cut_at` would
    raise a stray TypeError from making it primitive."""
    ps = general_instance(12, 1)
    with pytest.raises(ValueError, match="direction must be two ints"):
        cut_at(ps, range(12), d, 1, 6)
    with pytest.raises(ValueError, match="direction must be two ints"):
        Bisection(d, tuple(range(6)), tuple(range(6, 12)))


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


def test_ham_sandwich_cuts_all_split_a_pair_at_opposite_extremes():
    # 0 and 3 at opposite extremes of s1: every simultaneous bisection
    # separates them
    pts = [
        Point(-1000, 0), Point(-990, 31), Point(990, 17), Point(1000, 53),
        Point(-50, 200), Point(10, -210), Point(40, 190), Point(-30, -195),
    ]
    s1, s2 = [0, 1, 2, 3], [4, 5, 6, 7]
    cuts = list(ham_sandwich_cuts(pts, s1, s2))
    assert cuts, "sanity: plain cuts exist"
    for _e, parts in cuts:
        assert (0 in parts[0]) != (3 in parts[0])


def test_ham_sandwich_two_against_two():
    pts = [Point(-100, -50), Point(-100, 50), Point(100, -47), Point(100, 53)]
    _, parts = next(ham_sandwich_cuts(pts, [0, 1], [2, 3]))
    assert len(parts[0]) == len(parts[1]) == 1
    assert len(parts[2]) == len(parts[3]) == 1


def full_scan_cuts(points, s1, s2):
    """Reference ham_sandwich_cuts on points in general position: each
    direction's order sorted by a key per point, then every prefix length
    tested for balance."""
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
    assert list(ham_sandwich_cuts(points, s1, s2)) == list(full_scan_cuts(points, s1, s2)), (s1, s2)


def test_band_test_skips_the_tilt_of_pairs_that_cannot_balance(monkeypatch):
    # each tilted direction is a key and sort of every point; a pair whose
    # untilted bands are disjoint must not reach one
    import hcpack.bisection as bisection

    calls = []
    tilted = bisection._tilted
    monkeypatch.setattr(bisection, "_tilted", lambda *a: calls.append(a) or tilted(*a))
    ps = general_instance(28, 1)
    s1, s2 = list(range(14)), list(range(14, 28))
    next(ham_sandwich_cuts(ps, s1, s2))
    assert len(calls) == 1
    calls.clear()
    stream = list(ham_sandwich_cuts(ps, s1, s2))
    assert len(calls) == 60
    monkeypatch.undo()
    assert stream == list(full_scan_cuts(ps.points, s1, s2))


from hypothesis import given, settings, strategies as st


def tiny_grid_sets(span, max_size):
    """General-position sets of 3 to `max_size` points on the grid
    -span..span, kept greedily from a drawn list: parallel point pairs,
    which tie in `cross(d, p)`, are common."""
    grid = st.integers(-span, span)
    return st.lists(st.tuples(grid, grid), min_size=3, max_size=3 * max_size).map(
        lambda raw: general_position_subset([Point(x, y) for x, y in raw])[:max_size]
    ).filter(lambda pts: len(pts) >= 3)


def test_ham_sandwich_stream_matches_a_full_prefix_scan_on_tiny_grids():
    # ties in cross(d, p) are where the band test and the tilt meet
    ties = []

    @given(tiny_grid_sets(3, 10), st.randoms(use_true_random=False))
    @settings(max_examples=300, deadline=None)
    def check(points, rng):
        ties.append(has_parallel_pairs(points))
        n = len(points)
        idx = rng.sample(range(n), n)
        cut = rng.randint(1, n - 1)
        s1, s2 = idx[:cut], idx[cut:]
        assert list(ham_sandwich_cuts(points, s1, s2)) == list(full_scan_cuts(points, s1, s2))

    check()
    assert 4 * sum(ties) >= len(ties), (sum(ties), len(ties))


def test_cut_engine_exact_on_tiny_grids():
    # the cut direction parallel to another pair ties that pair's keys
    ties = []

    @given(tiny_grid_sets(4, 12), st.integers(0, 10_000))
    @settings(max_examples=300, deadline=None)
    def check(pts, dseed):
        n = len(pts)
        i, j = dseed % n, (dseed // n) % n
        if i == j:
            j = (j + 1) % n
        d = (pts[j].x - pts[i].x, pts[j].y - pts[i].y)
        others = [p for k, p in enumerate(pts) if k not in (i, j)]
        ties.append(any(d[0] * (q.y - p.y) == d[1] * (q.x - p.x)
                        for p, q in combinations(others, 2)))
        sense = 1 if dseed % 2 else -1
        left_count = 1 + dseed % (n - 1)
        bi = cut_at(pts, range(n), d, sense, left_count)
        assert len(bi.left) == left_count
        assert keys_separate(pts, bi.direction, bi.left, bi.right)

    check()
    assert 10 * sum(ties) >= len(ties), (sum(ties), len(ties))


DUPLICATE = [Point(0, 0), Point(5, 1), Point(2, 7), Point(5, 1), Point(-3, 4)]
COLLINEAR = [Point(0, 0), Point(5, 1), Point(2, 7), Point(10, 2), Point(-3, 4)]


@pytest.mark.parametrize("points", [DUPLICATE, COLLINEAR], ids=["duplicate", "collinear"])
@pytest.mark.parametrize("call", [
    lambda pts: next(bisecting_lines(pts, range(5))),
    lambda pts: bisecting_line(pts, range(5)),
    lambda pts: cut_at(pts, range(5), (1, 2), 1, 3),
    lambda pts: next(ham_sandwich_cuts(pts, [0, 1], [2, 4])),
    lambda pts: separating_subset_line(pts, range(5), (0, 4)),
    lambda pts: coordinate_oracle(pts),
], ids=["bisecting_lines", "bisecting_line", "cut_at", "ham_sandwich_cuts",
        "separating_subset_line", "coordinate_oracle"])
def test_degenerate_points_are_refused_at_the_door(call, points):
    with pytest.raises(DegenerateInput, match="duplicate or collinear points"):
        call(points)


def _with_right(cut, v):
    """`cut` with vertex `v` added to its right side."""
    return Bisection(cut.direction, cut.left, cut.right + (v,))


@pytest.mark.parametrize("call", [
    lambda ps: march_cycle(ps, [-1, 0, 1, 2]),  # read -1 as point 11
    lambda ps: march_cycle(ps, [0, 1, 99]),  # IndexError
    lambda ps: march_cycle(ps, [0, 1, 2, 3, 3]),  # "does not separate its sides"
    lambda ps: cut_at(ps, [0, 1, 2, 12], (1, 0), 1, 2),
    lambda ps: cut_at(ps, [-1, 0, 1, 2], (1, 0), 1, 2),
    lambda ps: next(bisecting_lines(ps, [0, 1, 2, 3, 3])),
    lambda ps: bisecting_line(ps, [0, 1, 2, 3, 3]),  # vertex 3 on both sides
    lambda ps: separating_subset_line(ps, [0, 1, 2, 3, 40], (0, 1)),
    lambda ps: separating_subset_line(ps, [-1, 0, 1, 2, 3], (0, 1)),
    lambda ps: next(ham_sandwich_cuts(ps, [-1, 0, 1], [2, 3, 4])),
    lambda ps: next(ham_sandwich_cuts(ps, [0, 1, 2], [3, 4, 12])),
    lambda ps: next(ham_sandwich_cuts(ps, [0, 1, 2], [3, 4, 4])),
    lambda ps: march_cycle(ps, [0.5, 1, 2]),  # TypeError
    lambda ps: march_cycle(ps, [True, 2, 3]),  # the cycle (True, 2, 3)
    lambda ps: cut_at(ps, [0.5, 1, 2, 3], (1, 0), 1, 2),
    lambda ps: next(bisecting_lines(ps, [0.5, 1, 2, 3])),
    # IndexError inside the join screen
    lambda ps: join_cycles(HamCycle((0, 1, 20)), march_cycle(ps, range(5, 12))[0], frozenset(), ps),
    # "repeated vertex in cycle" only once a splice runs
    lambda ps: join_cycles(HamCycle((0, 1, 5)), march_cycle(ps, range(5, 12))[0], frozenset(), ps),
    # the 6-cycle (0, 5, 1, 2, 4, 3) of the cut's points
    lambda ps: march_cycle(ps, range(8), bisection=bisecting_line(ps, range(6))),
    # an 8-cycle on points outside the subset
    lambda ps: march_cycle(ps, range(6), bisection=bisecting_line(ps, range(8))),
    # IndexError
    lambda ps: march_cycle(ps, range(6), bisection=_with_right(bisecting_line(ps, range(6)), 40)),
    # "the bisection's direction does not separate its sides"
    lambda ps: march_cycle(ps, range(6), bisection=_with_right(bisecting_line(ps, range(6)), 0)),
], ids=["march-negative", "march-past-end", "march-repeated", "cut_at-past-end",
        "cut_at-negative", "bisecting_lines-repeated", "bisecting_line-repeated",
        "separating-past-end", "separating-negative", "ham_sandwich-s1-negative",
        "ham_sandwich-s2-past-end", "ham_sandwich-s2-repeated", "march-float",
        "march-bool", "cut_at-float", "bisecting_lines-float", "join-past-end",
        "join-shared-vertex", "march-cut-smaller", "march-cut-larger",
        "march-cut-past-end", "march-cut-repeated"])
def test_subsets_that_are_not_distinct_vertices_are_refused(call):
    """The march, the join and the cut engine share the exact oracle's
    subset rule (`geometry.check_subset`); no negative index wraps round, no
    IndexError or TypeError stands in for it, and no bool passes as a
    vertex.  A march's given cut must split exactly its subset."""
    with pytest.raises(ValueError, match=r"subset vertices must be distinct and in 0\.\.11"):
        call(general_instance(12, 1))


def test_bisecting_line_needs_two_points():
    with pytest.raises(ValueError, match="at least 2 points"):
        bisecting_line(general_instance(5, 1), [3])


def test_separating_subset_line_pair_and_default_size():
    ps = general_instance(9, 2)
    with pytest.raises(ValueError, match="pair must lie in subset"):
        separating_subset_line(ps, range(6), (2, 7))
    sub = [0, 1, 3, 4, 6, 7, 8]
    pair = tuple(sorted(sub, key=lambda i: (ps.points[i].x, ps.points[i].y))[:2])
    e, grown = separating_subset_line(ps, sub, pair)
    assert len(grown) == (len(sub) + 1) // 2 and set(pair) <= set(grown)
    assert keys_separate(ps.points, e, grown, [i for i in sub if i not in grown])
