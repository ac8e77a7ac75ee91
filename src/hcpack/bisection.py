"""Bisecting lines, ham-sandwich cuts, and constrained separations.

All cuts are exact and combinatorial: a cut is a primitive integer
direction `e` plus the split it induces.  The points are sorted by the key
`cross(e, p)` and split at a position, so every left key exceeds every
right key.  `e` is a slightly tilted candidate direction, which orders
distinct points totally.

Each public entry point takes its points through `geometry.general_set`
once: a bare point sequence with a duplicate or a collinear triple raises
`DegenerateInput`, and everything behind the door works on distinct
points, so no split can tie.

Searches enumerate candidate directions from input point pairs, in both
orientations and both tilt senses; that reproduces the classical
"line through one point of each set, perturbed to either side" sweep with
O(n^3) work, plenty at the instance sizes this package targets.  The
ham-sandwich search first tests each pair on its untilted keys: the tilt
only breaks ties, so a pair none of whose directions can balance both sets
is dropped before it is tilted or sorted, and the tilted work is spent
only on the few pairs that can yield a cut.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Iterator, Optional, Sequence, Tuple

from .errors import NotSeparable
from .geometry import Point, check_subset, general_set

IndexList = Tuple[int, ...]
Direction = Tuple[int, int]


@dataclass(frozen=True)
class Bisection:
    """A cut direction with the split it induces: the keys
    `cross(direction, p)` of one side all exceed those of the other side.
    The sides come in either size order; the ladder march puts the larger
    one on its left itself."""

    direction: Direction
    left: IndexList
    right: IndexList

    def __post_init__(self):
        _check_direction(self.direction)
        object.__setattr__(self, "left", tuple(self.left))
        object.__setattr__(self, "right", tuple(self.right))


def _check_direction(d) -> None:
    """Refuse a direction that is not two coordinates of type `int` (so no
    float and no bool), or is zero: the keys `cross(d, p)` are exact on
    ints only."""
    if not (type(d) in (tuple, list) and len(d) == 2 and type(d[0]) is int and type(d[1]) is int):
        raise ValueError(f"direction must be two ints, got {d!r}")
    if d[0] == d[1] == 0:
        raise ValueError("direction must be nonzero")


def _primitive(dx: int, dy: int) -> Direction:
    g = gcd(dx, dy)
    return dx // g, dy // g


def _tilted(points, subset, d, sense) -> Direction:
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


def cut_at(ps, subset: Sequence[int], d, sense: int, left_count: int) -> Bisection:
    """Split `subset` along the tilted direction `e` of a nonzero `d`, tilted
    to the side `sense` (1 or -1): the `left_count` largest keys
    `cross(e, p)` go left, so both sides are nonempty.  Raises ValueError
    on a `d` that is zero or not two ints (before any tilt), another
    `sense`, a subset that is not distinct vertices of the set
    (`check_subset`), or a `left_count` outside 1..len(subset) - 1."""
    _check_direction(d)
    if type(sense) is not int or sense not in (1, -1):
        raise ValueError(f"sense must be 1 or -1, got {sense!r}")
    ps = general_set(ps)
    sub = check_subset(subset, len(ps))
    if type(left_count) is not int or not 0 < left_count < len(sub):
        raise ValueError(f"left_count must be in 1..{len(sub) - 1}, got {left_count!r}")
    return _cut(ps.points, sub, d, sense, left_count)


def _cut(points, sub: Sequence[int], d, sense: int, left_count: int) -> Bisection:
    e = _tilted(points, sub, d, sense)
    order = sorted(sub, key=lambda i: -_cross(e, points[i]))
    left, right = order[:left_count], order[left_count:]
    return Bisection(e, tuple(sorted(left)), tuple(sorted(right)))


def _pair_directions(points, idx_a: Sequence[int], idx_b: Sequence[int], keep=None):
    """The four `(d, sense)` candidates of each point pair, in canonical
    order; with `keep`, only those of the pairs whose `(dx, dy)` it accepts."""
    for i in sorted(idx_a):
        for j in sorted(idx_b):
            if i == j:
                continue
            dx = points[j].x - points[i].x
            dy = points[j].y - points[i].y
            if keep is not None and not keep(dx, dy):
                continue
            for d in ((dx, dy), (-dx, -dy)):
                for sense in (1, -1):
                    yield d, sense


def bisecting_lines(ps, subset: Sequence[int]) -> Iterator[Bisection]:
    """Deterministic stream of distinct balanced bisections of subset,
    which must be distinct vertices of the set (`check_subset`)."""
    ps = general_set(ps)
    sub = check_subset(subset, len(ps))
    nl = (len(sub) + 1) // 2
    seen = set()
    for d, sense in _pair_directions(ps.points, sub, sub):
        bi = _cut(ps.points, sub, d, sense, nl)
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
    ps, s1: Sequence[int], s2: Sequence[int]
) -> Iterator[Tuple[Direction, FourParts]]:
    """Stream of simultaneous bisections of disjoint s1 and s2 (distinct
    splits), each as `(e, (s1 left, s1 right, s2 left, s2 right))`: the
    left parts hold exactly the points with the larger keys `cross(e, p)`.

    Each point pair `(i, j)` is first tested once on the untilted keys
    `c(p) = cross(d, p)`, `d = p_j - p_i`.  The tilt only breaks ties in
    `c`, so a balanced split under any of the pair's directions is a split
    of `c` with ties allowed: its threshold lies in both sets' bands
    `[c[l], c[l - 1]]` (keys in descending order, `l` a balanced count).
    A pair whose two bands are disjoint yields nothing and is skipped.
    Negating `d` negates `c` and maps a balanced count `l` to `n - l`, so
    one test serves all four `(±d, sense)` directions; the stream is the
    same as without the test.
    """
    points = general_set(ps).points
    s1 = check_subset(s1, len(points))
    s2 = check_subset(s2, len(points))
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
    xy1, xy2 = list(zip(xs[:n1], ys[:n1])), list(zip(xs[n1:], ys[n1:]))
    lo1, hi1, lo2, hi2 = n1 // 2 - 1, (n1 + 1) // 2, n2 // 2 - 1, (n2 + 1) // 2

    def bands_meet(dx, dy):
        # ascending keys cross(d, p); a balanced split of a set has its
        # threshold in the set's band [keys[lo], keys[hi]]
        a1 = sorted([dx * y - dy * x for x, y in xy1])
        a2 = sorted([dx * y - dy * x for x, y in xy2])
        return max(a1[lo1], a2[lo2]) <= min(a1[hi1], a2[hi2])

    seen = set()
    keep = bands_meet if min(n1, n2) > 1 else None  # a singleton's band is unbounded
    for d, sense in _pair_directions(points, s1, s2, keep):
        e = ex, ey = _tilted(points, both, d, sense)
        keys = [ey * x - ex * y for x, y in zip(xs, ys)]  # -cross(e, p)
        order = [both[j] for j in sorted(range(len(both)), key=keys.__getitem__)]
        l1 = sum(i in in_s1 for i in order[: t_lo - 1])  # s1 in order[:t - 1]
        for t in range(t_lo, t_hi + 1):
            l1 += order[t - 1] in in_s1
            if abs(2 * l1 - n1) > 1 or abs(2 * (t - l1) - n2) > 1:
                continue
            left = set(order[:t])
            key = frozenset(left)
            if key in seen:
                continue
            seen.add(key)
            parts = (
                tuple(i for i in s1 if i in left),
                tuple(i for i in s1 if i not in left),
                tuple(i for i in s2 if i in left),
                tuple(i for i in s2 if i not in left),
            )
            yield e, parts


def separating_subset_line(
    ps,
    subset: Sequence[int],
    pair: Tuple[int, int],
    target_size: Optional[int] = None,
) -> Tuple[Direction, IndexList]:
    """A cut splitting off a pair-containing sub-subset of the target size,
    as `(e, sub-subset)`: the sub-subset holds exactly the target-size
    largest keys `cross(e, p)`.

    The sweep direction is any direction along which the pair is extreme;
    the sub-subset is grown point by point from the pair, so it is exactly
    the target-size prefix of that order.
    """
    points = general_set(ps).points
    sub = check_subset(subset, len(points))
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
        return e, tuple(sorted(order[:target_size]))
    raise NotSeparable(f"no line separates {pair} from the rest")
