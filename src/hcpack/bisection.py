"""Bisecting lines, ham-sandwich cuts, and constrained separations.

All cuts are exact: a cut is found combinatorially (sort the points along a
candidate direction, split at a position) and then materialized as an
integer `OrientedLine` with no input point on it.  The sort key is the
cross product with a slightly tilted primitive direction, which makes the
order total and lets any prefix be realized by an integer threshold line.

Searches enumerate candidate directions from input point pairs, in both
orientations and both tilt senses; that reproduces the classical
"line through one point of each set, perturbed to either side" sweep with
O(n^3) work, plenty at the instance sizes this package targets.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Iterator, Optional, Sequence, Tuple

from .errors import NotSeparable
from .geometry import OrientedLine, Point, PointSet

IndexList = Tuple[int, ...]


@dataclass(frozen=True)
class Bisection:
    """A line with the split it induces; left is never smaller than right."""

    line: OrientedLine
    left: IndexList
    right: IndexList

    def __post_init__(self):
        object.__setattr__(self, "left", tuple(self.left))
        object.__setattr__(self, "right", tuple(self.right))


def _points_of(ps) -> Tuple[Point, ...]:
    return ps.points if isinstance(ps, PointSet) else tuple(ps)


def _primitive(dx: int, dy: int) -> Tuple[int, int]:
    g = gcd(dx, dy)
    return dx // g, dy // g


def _tilted(points, subset, d, sense) -> Tuple[int, int]:
    """Primitive direction whose cross orders subset totally.

    Order: cross(d, p) first, then sense * -dot(d, p).  Distinct points
    cannot tie in both components.
    """
    d0x, d0y = _primitive(*d)
    big = 2 * max(abs(d0x * points[i].x + d0y * points[i].y) for i in subset) + 2
    ex = big * d0x - sense * d0y
    ey = big * d0y + sense * d0x
    return _primitive(ex, ey)


def _cross(e, p: Point) -> int:
    return e[0] * p.y - e[1] * p.x


def _anchor_for(a: int, b: int, c: int) -> Optional[Point]:
    """Integer point with a*x + b*y + c = 0, if one exists."""
    g = gcd(a, b)
    if c % g != 0:
        return None
    # extended gcd on (a, b)
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_s, old_t = -old_s, -old_t
    k = -c // g
    return Point(old_s * k, old_t * k)


def _threshold_line(points, left, right, e) -> OrientedLine:
    """Exact line with cross(e,.) above/below split: left side positive.

    `left` must hold strictly larger cross values than `right` under e.
    """
    lo = max(_cross(e, points[i]) for i in right) if right else None
    hi = min(_cross(e, points[i]) for i in left) if left else None
    # functional f(p) = a*x + b*y with (a, b) = (-ey, ex); f == cross(e, .)
    a, b = -e[1], e[0]
    # the one integer threshold, lo + 1 or hi - 1; a half-integer one has
    # no anchor on the doubled grid, since gcd(2a, 2b) is even
    t = hi - 1 if lo is None else lo + 1
    anchor = _anchor_for(a, b, -t) if hi is None or t < hi else None
    if anchor is not None:
        return OrientedLine(anchor, (2 * b, -2 * a))
    # no representable threshold on the doubled grid: tilt once more
    a2, b2 = 2 * a, 2 * b
    idx = list(left) + list(right)
    n_mag = max(abs(-b2 * points[i].x + a2 * points[i].y) for i in idx)
    big = n_mag + a2 * a2 + b2 * b2 + 1
    a3, b3 = a2 * big - b2, b2 * big + a2
    g3 = gcd(a3, b3)
    f3 = lambda i: a3 * points[i].x + b3 * points[i].y
    lo3 = max(f3(i) for i in right)
    hi3 = min(f3(i) for i in left)
    t3 = (lo3 // g3 + 1) * g3
    if not lo3 < t3 < hi3:
        raise ArithmeticError("tilt normalization failed")
    anchor = _anchor_for(a3, b3, -t3)
    return OrientedLine(anchor, (b3, -a3))


def cut_at(points, subset: Sequence[int], d, sense: int, left_count: int) -> Bisection:
    """Split `subset` by the exact line through no point: top block left."""
    e = _tilted(points, subset, d, sense)
    order = sorted(subset, key=lambda i: -_cross(e, points[i]))
    left, right = order[:left_count], order[left_count:]
    line = _threshold_line(points, left, right, e)
    return Bisection(line, tuple(sorted(left)), tuple(sorted(right)))


def _pair_directions(points, idx_a: Sequence[int], idx_b: Sequence[int]):
    for i in sorted(idx_a):
        for j in sorted(idx_b):
            if i == j:
                continue
            dx = points[j].x - points[i].x
            dy = points[j].y - points[i].y
            for d in ((dx, dy), (-dx, -dy)):
                for sense in (1, -1):
                    yield d, sense


def bisecting_lines(ps, subset: Sequence[int]) -> Iterator[Bisection]:
    """Deterministic stream of distinct balanced bisections of subset."""
    points = _points_of(ps)
    sub = sorted(subset)
    nl = (len(sub) + 1) // 2
    seen = set()
    for d, sense in _pair_directions(points, sub, sub):
        bi = cut_at(points, sub, d, sense, nl)
        if bi.left not in seen:
            seen.add(bi.left)
            yield bi


def bisecting_line(ps, subset: Sequence[int]) -> Bisection:
    """First balanced bisection in canonical order; |left| >= |right|."""
    if len(subset) < 2:
        raise ValueError("bisection needs at least 2 points")
    return next(iter(bisecting_lines(ps, subset)))


FourParts = Tuple[IndexList, IndexList, IndexList, IndexList]


def ham_sandwich_cuts(
    ps,
    s1: Sequence[int],
    s2: Sequence[int],
    pair: Optional[Tuple[int, int]] = None,
) -> Iterator[Tuple[OrientedLine, FourParts]]:
    """Stream of simultaneous bisections of disjoint s1 and s2 (distinct
    splits).

    With `pair`, only cuts keeping both pair members in the same part of
    s1 are yielded.
    """
    points = _points_of(ps)
    s1 = sorted(s1)
    s2 = sorted(s2)
    both = s1 + s2
    in_s1 = set(s1)
    if len(set(both)) != len(both):
        raise ValueError("s1 and s2 must be disjoint sets")
    xs, ys = [points[i].x for i in both], [points[i].y for i in both]
    # floor(|s|/2) strictly on each side; an odd set's extra point may land
    # on either side, so only these prefix lengths can balance both sets
    n1, n2 = len(s1), len(s2)
    t_lo = max(n1 // 2 + n2 // 2, 1)
    t_hi = min((n1 + 1) // 2 + (n2 + 1) // 2, len(both) - 1)
    seen = set()
    for d, sense in _pair_directions(points, s1, s2):
        ex, ey = _tilted(points, both, d, sense)
        keys = [ey * x - ex * y for x, y in zip(xs, ys)]  # -cross(e, p)
        order = [both[j] for j in sorted(range(len(both)), key=keys.__getitem__)]
        l1 = sum(i in in_s1 for i in order[: t_lo - 1])  # s1 in order[:t - 1]
        for t in range(t_lo, t_hi + 1):
            l1 += order[t - 1] in in_s1
            if abs(2 * l1 - n1) > 1 or abs(2 * (t - l1) - n2) > 1:
                continue
            left = set(order[:t])
            if pair is not None and (pair[0] in left) != (pair[1] in left):
                continue
            key = frozenset(left)
            if key in seen:
                continue
            seen.add(key)
            line = _threshold_line(points, order[:t], order[t:], (ex, ey))
            parts = (
                tuple(i for i in s1 if i in left),
                tuple(i for i in s1 if i not in left),
                tuple(i for i in s2 if i in left),
                tuple(i for i in s2 if i not in left),
            )
            yield line, parts


def separating_subset_line(
    ps,
    subset: Sequence[int],
    pair: Tuple[int, int],
    target_size: Optional[int] = None,
) -> Tuple[OrientedLine, IndexList]:
    """Line splitting off a pair-containing sub-subset of the target size.

    The sweep direction is any direction along which the pair is extreme;
    the sub-subset is grown point by point from the pair, so it is exactly
    the target-size prefix of that order.
    """
    points = _points_of(ps)
    sub = sorted(subset)
    pset = set(pair)
    if not pset <= set(sub):
        raise ValueError("pair must lie in subset")
    if target_size is None:
        target_size = (len(sub) + 1) // 2
    target_size = max(2, min(target_size, len(sub) - 1))
    for d, sense in _pair_directions(points, sub, sub):
        e = _tilted(points, sub, d, sense)
        order = sorted(sub, key=lambda i: -_cross(e, points[i]))
        if set(order[:2]) != pset:
            continue
        line = _threshold_line(points, order[:target_size], order[target_size:], e)
        return line, tuple(sorted(order[:target_size]))
    raise NotSeparable(f"no line separates {pair} from the rest")
