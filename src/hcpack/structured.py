"""Explicit maximum packings for convex position and the regular wheel.

All three cycle families are alternating zigzags around the hull:

* ``THREE_BOUNDARY`` (odd n): from an anchor a, visit a, a+1, a-1, a+3,
  a-3, ... through every odd offset.  Gives one single boundary edge at
  (a, a+1) and a consecutive couple opposite it.
* ``TWO_BOUNDARY`` (even n, family A): odd offsets outward, the antipode,
  then even offsets back in.  Two single boundary edges, antipodal.
* ``FOUR_BOUNDARY`` (even n, family B): a boundary couple around the
  anchor, a zigzag out, and the antipodal couple.

Rotating anchors in steps of (n+3)/2 for odd n, or 3 for even n, tiles the
boundary so the k = floor(n/3) cycles stay pairwise edge-disjoint.  The
wheel packing takes the zigzags on its n-1 rim points (odd, so
THREE_BOUNDARY) and splices the center into one chord per cycle: the first
slot, in a fixed order, whose cycle shares no edge with the cycles already
chosen and stays 1-plane.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional, Tuple

from .cycles import (
    HamCycle,
    Packing,
    crossing_report,
    is_one_plane,  # unused here; perfbench/tracer.py patches this name
    verify_packing,
)
from .errors import ConstructionFailed, InvalidN, NonHamiltonian
from .geometry import convex_oracle, ring_boundary, wheel_oracle


class BoundaryPlan(Enum):
    TWO_BOUNDARY = "two"
    FOUR_BOUNDARY = "four"
    THREE_BOUNDARY = "three"


def _offsets_three(n: int) -> list[int]:
    m = (n - 1) // 2
    out = [0]
    for j in range(1, m + 1):
        out += [2 * j - 1, -(2 * j - 1)]
    return out


def _offsets_two(n: int) -> list[int]:
    m = n // 2
    out = [0]
    o = 1
    while o <= m - 1:
        out += [o, -o]
        o += 2
    out.append(m)
    e = m - 1 if (m - 1) % 2 == 0 else m - 2
    while e >= 2:
        out += [-e, e]
        e -= 2
    return out


def _offsets_four(n: int) -> list[int]:
    m = n // 2
    out = [-1, 0, 1]
    for mag in range(2, m):
        out.append(mag if mag % 2 else -mag)
    out.append(m)
    for mag in range(m - 1, 1, -1):
        out.append(-mag if mag % 2 else mag)
    return out


@dataclass(frozen=True)
class ZigzagSpec:
    """Index schedule for one constructed cycle.

    `pattern` is the resolved offset schedule relative to `anchor`; for
    wheel cycles the center vertex is spliced in at `splice_pos`.
    """

    n: int
    anchor: int
    plan: BoundaryPlan
    center: Optional[int] = None
    splice_pos: Optional[int] = None
    pattern: Tuple[int, ...] = ()

    def __post_init__(self):
        if self.plan is BoundaryPlan.THREE_BOUNDARY:
            if self.n % 2 == 0:
                raise InvalidN("three-boundary zigzags need odd n")
            pat = _offsets_three(self.n)
        elif self.plan is BoundaryPlan.TWO_BOUNDARY:
            if self.n % 2 == 1:
                raise InvalidN("two-boundary zigzags need even n")
            pat = _offsets_two(self.n)
        else:
            if self.n % 2 == 1:
                raise InvalidN("four-boundary zigzags need even n")
            pat = _offsets_four(self.n)
        object.__setattr__(self, "pattern", tuple(pat))


def generate_zigzag(spec: ZigzagSpec) -> HamCycle:
    """Expand the offset schedule into a Hamiltonian cycle."""
    seq = [(spec.anchor + o) % spec.n for o in spec.pattern]
    if len(set(seq)) != len(seq):
        raise NonHamiltonian(f"offset schedule revisits an index: {spec}")
    if spec.splice_pos is not None:
        if spec.center is None:
            raise ValueError("splice_pos needs a center vertex")
        seq = seq[: spec.splice_pos + 1] + [spec.center] + seq[spec.splice_pos + 1 :]
    return HamCycle(tuple(seq))


def _verify_family(cycles, n, oracle, label):
    if not verify_packing(cycles, n, oracle)["ok"]:
        raise ConstructionFailed(f"{label}: cycles are not Hamiltonian, 1-plane and edge-disjoint")


def _zigzags(n: int) -> list[HamCycle]:
    """The floor(n/3) convex zigzag cycles on n points, unverified."""
    k = n // 3
    if n % 2 == 1:
        m = (n - 1) // 2
        return [
            generate_zigzag(ZigzagSpec(n, ((m + 2) * i) % n, BoundaryPlan.THREE_BOUNDARY))
            for i in range(k)
        ]
    t_a = (k + 1) // 2
    return [
        generate_zigzag(ZigzagSpec(n, 3 * i, BoundaryPlan.TWO_BOUNDARY)) for i in range(t_a)
    ] + [
        generate_zigzag(ZigzagSpec(n, 3 * j + 2, BoundaryPlan.FOUR_BOUNDARY))
        for j in range(k - t_a)
    ]


def pack_convex(n: int) -> Packing:
    """floor(n/3) pairwise edge-disjoint 1-plane Hamiltonian cycles."""
    if n < 3:
        raise InvalidN(f"need n >= 3, got {n}")
    cycles = _zigzags(n)
    _verify_family(cycles, n, convex_oracle(n), f"pack_convex({n})")
    return Packing(tuple(cycles))


def pack_wheel(n: int) -> Packing:
    """floor((n-1)/3) cycles on the wheel; center stored as index n-1.

    The rims are the convex zigzags on the n-1 rim points
    (`_zigzags(n - 1)`), and each gets the center spliced into one chord.
    The preferred splice slot is the chord between the last two zigzag
    turns; when that slot is a boundary edge, shares an edge with an
    earlier cycle or breaks 1-planarity, the next chord position is taken
    instead.
    """
    if n % 2 != 0 or n < 10:
        raise InvalidN(f"wheel packing needs even n >= 10, got {n}")
    m = n - 1
    oracle = wheel_oracle(n)
    slots = [m - 3] + [p for p in range(m - 1, -1, -1) if p != m - 3]
    used: set = set()
    cycles = []
    for i, zigzag in enumerate(_zigzags(m)):
        rim = zigzag.order
        for pos in slots:
            u, v = rim[pos], rim[(pos + 1) % m]
            if ring_boundary(u, v, m):
                continue  # splicing a boundary edge would drop below three
            cand = HamCycle(rim[: pos + 1] + (n - 1,) + rim[pos + 1 :])
            if used.isdisjoint(cand.edges()) and crossing_report(cand, oracle).max_count <= 1:
                break
        else:
            raise ConstructionFailed(f"pack_wheel({n}): no splice slot for cycle {i}")
        used.update(cand.edges())
        cycles.append(cand)
    _verify_family(cycles, n, oracle, f"pack_wheel({n})")
    return Packing(tuple(cycles))
