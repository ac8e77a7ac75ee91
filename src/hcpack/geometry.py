"""Exact geometric predicates and combinatorial crossing oracles.

Everything here is integer arithmetic on immutable values: Python ints never
overflow, so every predicate is exact regardless of coordinate size.  The
combinatorial oracles (`convex_cross`, `wheel_cross`) decide crossings from
vertex indices alone, which is what makes verification on convex and wheel
configurations independent of any coordinate approximation.  The
general-position oracle (`coordinate_oracle`) reads flat integer lists of
the coordinates and computes its determinants inline; on any zero
determinant it defers to `segments_properly_cross`.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum, IntEnum
from math import gcd
from typing import Callable, Optional, Sequence, Tuple

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


def convex_hull(points: Sequence[Point]) -> list[int]:
    """Counter-clockwise hull vertex indices (monotone chain)."""
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

    lower = build(order)
    upper = build(reversed(order))
    hull = lower[:-1] + upper[:-1]
    if len(hull) < 3:
        raise DegenerateInput("all points collinear")
    return hull


def primitive_direction(p: Point, q: Point) -> Tuple[int, int]:
    """Primitive, sign-normalised direction of the line through p and q, so
    that r lies on that line iff `primitive_direction(p, r)` is the same;
    (0, 0) iff p == q."""
    dx, dy = q.x - p.x, q.y - p.y
    g = gcd(dx, dy)
    if g == 0:
        return (0, 0)
    if dx < 0 or (dx == 0 and dy < 0):
        g = -g
    return (dx // g, dy // g)


def in_general_position(points: Sequence[Point]) -> bool:
    """Distinct points, no three collinear: per point, the directions to the
    later points must be nonzero and distinct.  O(n^2) time, O(n) memory."""
    for i, p in enumerate(points):
        seen = set()
        for j in range(i + 1, len(points)):
            d = primitive_direction(p, points[j])
            if d == (0, 0) or d in seen:
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
    shorter one.  With a convex rim of odd size this decides every crossing
    exactly as `wheel_cross` does; O(m^2).
    """
    m = len(rim)
    for a in range(m):
        pa = rim[a]
        for b in range(a + 1, m):
            turn = orientation(pa, rim[b], center)
            if turn != (Orientation.CCW if short_arc(a, b, m) else Orientation.CW):
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
    instead of `convex_cross`.  Calling it decides one pair as those do;
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
        if not self.wheel:
            return convex_cross(self.m, e1, e2)
        label = self.label
        return wheel_cross(self.m, (label[e1[0]], label[e1[1]]), (label[e2[0]], label[e2[1]]))


def convex_oracle(n: int) -> RingOracle:
    return RingOracle(n, range(n), False)


def wheel_oracle(n: int, center_index: Optional[int] = None) -> RingOracle:
    """Oracle over original indices of a wheel set with n points total.

    Defaults to the center stored last; otherwise indices are relabeled to
    the sentinel convention internally.
    """
    return RingOracle(n - 1, wheel_relabeling(n, center_index)[0], True)


def coordinate_oracle(points: Sequence[Point]) -> CrossingOracle:
    """Exact crossing test over vertex indices of `points`.

    The coordinates are copied once into two flat integer lists, and each
    call works on those: a shared index never crosses, and otherwise the
    orientation determinants are computed inline.  A pair with a zero
    determinant (a duplicate point, a touching endpoint, a collinear pair)
    goes to `segments_properly_cross` on the real points, looked up at call
    time, so degenerate input gets exactly that function's answer or its
    CollinearOverlap.
    """
    xs = [p.x for p in points]
    ys = [p.y for p in points]

    def oracle(e1: Edge, e2: Edge) -> bool:
        a, b = e1
        c, d = e2
        if a == c or a == d or b == c or b == d:
            return False
        ax, ay, bx, by = xs[a], ys[a], xs[b], ys[b]
        cx, cy, dx, dy = xs[c], ys[c], xs[d], ys[d]
        ux, uy = dx - cx, dy - cy
        d1 = ux * (ay - cy) - uy * (ax - cx)
        d2 = ux * (by - cy) - uy * (bx - cx)
        if d1 and d2:
            if (d1 > 0) == (d2 > 0):
                return False  # both ends on one side of (c, d)
            vx, vy = bx - ax, by - ay
            d3 = vx * (cy - ay) - vy * (cx - ax)
            d4 = vx * (dy - ay) - vy * (dx - ax)
            if d3 and d4:
                return (d3 > 0) != (d4 > 0)
        return segments_properly_cross((points[a], points[b]), (points[c], points[d]))

    return oracle


def oracle_for(ps: PointSet) -> CrossingOracle:
    """The verification oracle matching the set's configuration."""
    if ps.config is Config.CONVEX:
        return convex_oracle(len(ps))
    if ps.config is Config.WHEEL:
        return wheel_oracle(len(ps), ps.center_index)
    return coordinate_oracle(ps.points)
