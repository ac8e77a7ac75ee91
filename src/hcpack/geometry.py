"""Exact geometric predicates and combinatorial crossing oracles.

Everything here is integer arithmetic on immutable values: Python ints never
overflow, so every predicate is exact regardless of coordinate size.  The
combinatorial oracles (`convex_cross`, `wheel_cross`) decide crossings from
vertex indices alone, which is what makes verification on convex and wheel
configurations independent of any coordinate approximation.

General position is checked once, at one door (`general_set`), which the
general packer, the cut engine and the general-position oracle
(`coordinate_oracle`) all pass through; behind it the oracle's inline
determinants are zero only at a shared vertex.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum, IntEnum
from math import gcd
from typing import Callable, Iterable, Optional, Sequence, Tuple

from .errors import (
    CollinearOverlap,
    ConfigMismatch,
    DegenerateInput,
    InvalidN,
    SharedEndpoint,
)

Edge = Tuple[int, int]
CrossingOracle = Callable[[Edge, Edge], bool]


class Orientation(IntEnum):
    CW = -1
    COLLINEAR = 0
    CCW = 1


class Config(Enum):
    CONVEX = "convex"
    WHEEL = "wheel"
    GENERAL = "general"


@dataclass(frozen=True)
class Point:
    x: int
    y: int

    def __post_init__(self):
        if not isinstance(self.x, int) or not isinstance(self.y, int):
            raise TypeError("coordinates must be integers")


def orientation(p: Point, q: Point, r: Point) -> Orientation:
    """Sign of the determinant of (q - p, r - p)."""
    det = (q.x - p.x) * (r.y - p.y) - (q.y - p.y) * (r.x - p.x)
    if det > 0:
        return Orientation.CCW
    if det < 0:
        return Orientation.CW
    return Orientation.COLLINEAR


def check_edge(a, b, n: int) -> None:
    """The one edge rule for the crossing oracles and passes over vertex
    indices: refuse an edge that is not two distinct vertices of 0..n-1,
    each of type `int` (so no float and no bool)."""
    if type(a) is not int or type(b) is not int or not (0 <= a < n and 0 <= b < n) or a == b:
        raise ValueError(f"edge {(a, b)} is not two distinct vertices of 0..{n - 1}")


def check_subset(subset: Iterable[int], n: int) -> list[int]:
    """The one subset rule for the engines that take vertex indices: refuse
    a subset that is not distinct vertices of 0..n-1, each of type `int`
    (so no float and no bool); return it sorted."""
    sub = list(subset)
    if any(type(v) is not int or not 0 <= v < n for v in sub) or len(set(sub)) < len(sub):
        raise ValueError(f"subset vertices must be distinct and in 0..{n - 1}")
    return sorted(sub)


def edge(a: int, b: int) -> Edge:
    """Canonical unordered vertex pair."""
    if a == b:
        raise ValueError("an edge needs two distinct vertices")
    return (a, b) if a < b else (b, a)


def segments_properly_cross(e1: Tuple[Point, Point], e2: Tuple[Point, Point]) -> bool:
    """True iff the open segments meet in exactly one interior point.

    Segments sharing an endpoint never cross.  Collinear overlap raises
    CollinearOverlap: it signals input violating general position.  A
    zero-length segment (a duplicate point) overlaps only a segment whose
    line holds it, whichever argument it is.
    """
    p1, p2 = e1
    q1, q2 = e2
    if p1 in (q1, q2) or p2 in (q1, q2):
        return False
    d1 = orientation(q1, q2, p1)
    d2 = orientation(q1, q2, p2)
    d3 = orientation(p1, p2, q1)
    d4 = orientation(p1, p2, q2)
    if d1 == d2 == d3 == d4 == Orientation.COLLINEAR:
        # all four points on one line; any touching means degenerate overlap
        lo1, hi1 = sorted(((p1.x, p1.y), (p2.x, p2.y)))
        lo2, hi2 = sorted(((q1.x, q1.y), (q2.x, q2.y)))
        if lo1 < hi2 and lo2 < hi1:
            raise CollinearOverlap(f"segments {e1} and {e2} overlap")
        return False
    if d1 * d2 < 0 and d3 * d4 < 0:
        return True
    return False


def ring_boundary(a: int, b: int, m: int) -> bool:
    """Positions a and b are neighbours on a ring of m: a boundary edge."""
    return (b - a) % m in (1, m - 1)


def short_arc(a: int, b: int, m: int) -> bool:
    """The ccw arc from a to b is the shorter one on a ring of odd size m."""
    return (b - a) % m < (a - b) % m


def _in_open_arc(x: int, lo: int, hi: int, n: int) -> bool:
    """x strictly inside the ccw arc from lo to hi on 0..n-1."""
    return (x - lo) % n < (hi - lo) % n and x != lo


def convex_cross(n: int, e1: Edge, e2: Edge) -> bool:
    """Chord crossing on n points in convex position, by index interleaving."""
    a, b = e1
    c, d = e2
    for v in (a, b, c, d):
        if not 0 <= v < n:
            raise ValueError(f"index {v} out of range for n={n}")
    if len({a, b, c, d}) < 4:
        raise SharedEndpoint(f"{e1} and {e2} share a vertex")
    return _in_open_arc(c, a, b, n) != _in_open_arc(d, a, b, n)


def wheel_cross(m: int, e1: Edge, e2: Edge) -> bool:
    """Crossing oracle for the regular wheel: m rim points plus center.

    Rim vertices are 0..m-1 in ccw order, the center is the sentinel index m.
    m must be odd, so no chord passes through the center.  Two radial edges
    share the center and return False; any other shared endpoint is an error.
    """
    if m % 2 == 0:
        raise ValueError("rim count must be odd")
    r1 = m in e1
    r2 = m in e2
    if r1 and r2:
        return False
    a, b = e1
    c, d = e2
    if len({a, b, c, d}) < 4:
        raise SharedEndpoint(f"{e1} and {e2} share a vertex")
    if not r1 and not r2:
        return _in_open_arc(c, a, b, m) != _in_open_arc(d, a, b, m)
    if r1:
        j = a if b == m else b
        p, q = e2
    else:
        j = c if d == m else d
        p, q = e1
    # the radial to j crosses chord (p,q) iff j lies in the shorter arc
    lo, hi = (p, q) if short_arc(p, q, m) else (q, p)
    return _in_open_arc(j, lo, hi, m)


def left_chain(order: Iterable[int], xs: Sequence[int], ys: Sequence[int]) -> list[int]:
    """The indices of `order`, each appended after popping the chain's last
    index while the chain does not turn strictly left there.  Index i is at
    `(xs[i], ys[i])`; each turn is an inline determinant with `orientation`'s
    sign.  On indices sorted by (x, y) it is the lower hull chain."""
    chain: list[int] = []
    for i in order:
        x, y = xs[i], ys[i]
        while len(chain) > 1:
            p, q = chain[-2], chain[-1]
            px, py = xs[p], ys[p]
            if (xs[q] - px) * (y - py) - (ys[q] - py) * (x - px) > 0:
                break
            chain.pop()
        chain.append(i)
    return chain


def convex_hull(points: Sequence[Point]) -> list[int]:
    """Counter-clockwise hull vertex indices (monotone chain).

    A point joins a chain only where the chain turns strictly left, so
    duplicates and points on a hull edge are dropped.  The coordinates are
    read once into two flat integer lists, and both chains are
    `left_chain`s over them.
    """
    if len(points) < 3:
        raise DegenerateInput("hull needs at least 3 points")
    xs = [p.x for p in points]
    ys = [p.y for p in points]
    order = sorted(range(len(points)), key=list(zip(xs, ys)).__getitem__)
    lower = left_chain(order, xs, ys)
    upper = left_chain(reversed(order), xs, ys)
    hull = lower[:-1] + upper[:-1]
    if len(hull) < 3:
        raise DegenerateInput("all points collinear")
    return hull


def line_direction(dx: int, dy: int) -> Optional[Tuple[int, int]]:
    """The primitive direction of the vector (dx, dy), signed so that its
    first nonzero coordinate is positive: two vectors from one point get
    the same direction exactly when they lie on one line.  None for the
    zero vector."""
    g = gcd(dx, dy)
    if g == 0:
        return None
    if dx < 0 or (dx == 0 and dy < 0):
        g = -g
    return dx // g, dy // g


def in_general_position(points: Sequence[Point]) -> bool:
    """Distinct points, no three collinear: per point, the `line_direction`s
    to the later points must be defined and distinct.  O(n^2) time, O(n)
    memory."""
    xy = [(p.x, p.y) for p in points]
    for i, (px, py) in enumerate(xy):
        seen = set()
        for qx, qy in xy[i + 1 :]:
            d = line_direction(qx - px, qy - py)
            if d is None or d in seen:
                return False
            seen.add(d)
    return True


@dataclass(frozen=True)
class PointSet:
    """Input points plus their configuration tag.

    Convex sets list their points in ccw convex-position order; wheel sets
    have an even count with one center and the rim in ccw circular order.
    Each configuration is checked for exactly what its crossing oracle
    assumes; the convex and wheel checks imply general position, so only
    general sets test it directly.
    """

    points: Tuple[Point, ...]
    config: Config = Config.GENERAL
    center_index: Optional[int] = None

    def __post_init__(self):
        object.__setattr__(self, "points", tuple(self.points))
        n = len(self.points)
        if n < 3:
            raise DegenerateInput("need at least 3 points")
        if self.config is Config.CONVEX:
            if self.center_index is not None:
                raise ConfigMismatch("convex sets have no center")
            if not _is_ccw_convex_order(self.points):
                raise DegenerateInput("points are not in ccw convex order")
        elif self.config is Config.WHEEL:
            if n % 2 != 0:
                raise InvalidN(f"wheel sets need even n, got {n}")
            if self.center_index is None or not 0 <= self.center_index < n:
                raise DegenerateInput("wheel sets need a valid center_index")
            rim = [self.points[i] for i in self.rim_order()]
            if not _is_ccw_convex_order(rim):
                raise DegenerateInput("rim is not in ccw circular order")
            if not _wheel_arcs_agree(rim, self.points[self.center_index]):
                raise DegenerateInput("center is not on the long-arc side of every rim chord")
        else:
            if self.center_index is not None:
                raise ConfigMismatch("center_index only applies to wheel sets")
            if not in_general_position(self.points):
                raise DegenerateInput("duplicate or collinear points")

    def __len__(self):
        return len(self.points)

    def rim_order(self) -> list[int]:
        """Original indices of the rim in listed (ccw) order; wheel only."""
        if self.config is not Config.WHEEL:
            raise ConfigMismatch("rim_order needs a wheel set")
        return wheel_relabeling(len(self.points), self.center_index)[1][:-1]


def general_set(ps) -> PointSet:
    """The one door to general position: a PointSet is taken as it is
    (convex and wheel validation imply general position), and a bare point
    sequence becomes a PointSet, whose general-position check raises
    DegenerateInput.

    Behind the door no three points are collinear and none coincide, so a
    determinant of three of them is zero only if two are the same point.
    """
    return ps if isinstance(ps, PointSet) else PointSet(tuple(ps))


def _is_ccw_convex_order(points: Sequence[Point]) -> bool:
    """The points are the vertices of their convex hull, listed ccw from any
    start; O(n log n).

    The hull drops duplicates and points on a hull edge, so a pass also
    means no three points are collinear.  Every vertex turning left is not
    enough: a pentagram listing of a regular pentagon turns left throughout.
    """
    try:
        hull = convex_hull(points)
    except DegenerateInput:
        return False
    if 0 not in hull:
        return False
    k = hull.index(0)
    return hull[k:] + hull[:k] == list(range(len(points)))


def _wheel_arcs_agree(rim: Sequence[Point], center: Point) -> bool:
    """The center lies strictly on the long-arc side of every rim chord:
    ccw of (rim[a], rim[b]) exactly when the ccw arc from a to b is the
    shorter one, cw otherwise.  With a convex rim of odd size this decides
    every crossing exactly as `wheel_cross` does; O(m^2).

    With the center moved to the origin, that orientation is the sign of
    the determinant x_a * y_b - y_a * x_b, so each chord costs two integer
    products.  Whether b - a is a short arc is `short_arc(0, b - a, m)`,
    asked once per difference; a zero determinant rejects.
    """
    m = len(rim)
    xs = [p.x - center.x for p in rim]
    ys = [p.y - center.y for p in rim]
    short = [short_arc(0, d, m) for d in range(m)]
    for a in range(m):
        xa, ya = xs[a], ys[a]
        for b in range(a + 1, m):
            det = xa * ys[b] - ya * xs[b]
            if not (det > 0 if short[b - a] else det < 0):
                return False
    return True


def wheel_relabeling(
    n: int, center_index: Optional[int] = None
) -> Tuple[list[int], list[int]]:
    """The maps between the file indices of a wheel with n points and its
    sentinel labels (rim 0..n-2 in listed ccw order, center n-1).

    Returns `(to_sentinel, to_file)`, each a list indexed by the label it
    maps from; the center defaults to the last point.
    """
    center = n - 1 if center_index is None else center_index
    to_file = [v for v in range(n) if v != center] + [center]
    to_sentinel = [0] * n
    for s, v in enumerate(to_file):
        to_sentinel[v] = s
    return to_sentinel, to_file


class RingOracle:
    """Crossing oracle for points on a ring: convex position, or a wheel.

    `label[v]` is the ring position (0..m-1, ccw) of vertex `v`; on a wheel
    the center is labelled `m`, and `wheel` makes calls go to `wheel_cross`
    instead of `convex_cross`.  Calling it decides one pair as those do,
    once both edges pass `check_edge` (ValueError otherwise);
    `cycles.crossing_report` reads `m` and `label` to find every crossing
    of an edge list in one sweep around the ring.  Calls never relabel a
    convex ring, so its labels must be 0..m-1 in order; a wheel's must
    hold each of 0..m once.
    """

    __slots__ = ("m", "label", "wheel")

    def __init__(self, m: int, label: Sequence[int], wheel: bool):
        if wheel and m % 2 == 0:
            raise ValueError("rim count must be odd")
        if (sorted(label) if wheel else list(label)) != list(range(m + wheel)):
            what = "each of 0..m once" if wheel else "0..m-1 in order"
            raise ValueError(f"ring labels must be {what}")
        self.m, self.label, self.wheel = m, label, wheel

    def __call__(self, e1: Edge, e2: Edge) -> bool:
        label = self.label
        check_edge(*e1, len(label))
        check_edge(*e2, len(label))
        if not self.wheel:
            return convex_cross(self.m, e1, e2)
        return wheel_cross(self.m, (label[e1[0]], label[e1[1]]), (label[e2[0]], label[e2[1]]))


def convex_oracle(n: int) -> RingOracle:
    return RingOracle(n, range(n), False)


def wheel_oracle(n: int, center_index: Optional[int] = None) -> RingOracle:
    """Oracle over original indices of a wheel set with n points total.

    Defaults to the center stored last; otherwise indices are relabeled to
    the sentinel convention internally.
    """
    return RingOracle(n - 1, wheel_relabeling(n, center_index)[0], True)


class CoordinateOracle:
    """Exact crossing test over vertex indices of a point set in general
    position (`general_set`: a bare point sequence is validated).

    The coordinates are copied once into two flat integer lists, `xs` and
    `ys`, and each call works on those: both edges must pass `check_edge`
    (ValueError otherwise), a shared index never crosses, and otherwise the
    orientation determinants are computed inline.  Four distinct points in
    general position give no zero determinant, so the signs decide every
    pair.  `cycles.crossing_report` reads `xs` and `ys` to decide a whole
    edge list in one lane-packed pass, with the same side values.
    """

    __slots__ = ("xs", "ys")

    def __init__(self, ps):
        points = general_set(ps).points
        self.xs = [p.x for p in points]
        self.ys = [p.y for p in points]

    def __call__(self, e1: Edge, e2: Edge) -> bool:
        a, b = e1
        c, d = e2
        xs, ys = self.xs, self.ys
        check_edge(a, b, len(xs))
        check_edge(c, d, len(xs))
        if a == c or a == d or b == c or b == d:
            return False
        ax, ay, bx, by = xs[a], ys[a], xs[b], ys[b]
        cx, cy, dx, dy = xs[c], ys[c], xs[d], ys[d]
        ux, uy = dx - cx, dy - cy
        d1 = ux * (ay - cy) - uy * (ax - cx)
        d2 = ux * (by - cy) - uy * (bx - cx)
        if (d1 > 0) == (d2 > 0):
            return False  # both ends on one side of (c, d)
        vx, vy = bx - ax, by - ay
        d3 = vx * (cy - ay) - vy * (cx - ax)
        d4 = vx * (dy - ay) - vy * (dx - ax)
        return (d3 > 0) != (d4 > 0)


def coordinate_oracle(ps) -> CoordinateOracle:
    """The general-position crossing oracle over the PointSet or point
    sequence `ps` (see `CoordinateOracle`)."""
    return CoordinateOracle(ps)


def oracle_for(ps: PointSet) -> CrossingOracle:
    """The verification oracle matching the set's configuration."""
    if ps.config is Config.CONVEX:
        return convex_oracle(len(ps))
    if ps.config is Config.WHEEL:
        return wheel_oracle(len(ps), ps.center_index)
    return coordinate_oracle(ps)
