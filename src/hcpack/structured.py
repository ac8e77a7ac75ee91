"""Explicit maximum packings for convex position and the regular wheel.

All three cycle families are alternating zigzags around the hull, each
an offset schedule from an anchor a:

* ``_offsets_three`` (odd n): visit a, a+1, a-1, a+3, a-3, ... through
  every odd offset.  Gives one single boundary edge at (a, a+1) and a
  consecutive couple opposite it.
* ``_offsets_two`` (even n, family A): odd offsets outward, the antipode,
  then even offsets back in.  Two single boundary edges, antipodal.
* ``_offsets_four`` (even n, family B): a boundary couple around the
  anchor, a zigzag out, and the antipodal couple.

Rotating anchors in steps of (n+3)/2 for odd n, or 3 for even n, tiles the
boundary so the k = floor(n/3) cycles stay pairwise edge-disjoint.  The
wheel packing takes the zigzags on its n-1 rim points (odd, so
``_offsets_three``) and splices the center into one chord per cycle: the
first of four chords near the center whose radial ends are still free.
"""

from __future__ import annotations

from .cycles import (
    HamCycle,
    Packing,
    crossing_report,  # unused here; perfbench/tracer.py patches this name
    is_one_plane,  # unused here; perfbench/tracer.py patches this name
    verify_packing,
)
from .errors import ConstructionFailed, InvalidN
from .geometry import convex_oracle, wheel_oracle


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


def _verify_family(cycles, n, oracle, label):
    if not verify_packing(cycles, n, oracle)["ok"]:
        raise ConstructionFailed(f"{label}: cycles are not Hamiltonian, 1-plane and edge-disjoint")


def _zigzags(n: int) -> list[HamCycle]:
    """The floor(n/3) convex zigzag cycles on n points, unverified.

    Each family's schedule is expanded once, at anchor 0 (so a schedule
    that revisits an index raises `HamCycle`'s ValueError), and each
    anchor's cycle is that order turned by the anchor: one list lookup per
    vertex.
    """
    k = n // 3
    if n % 2 == 1:
        m = (n - 1) // 2
        families = [(_offsets_three, [((m + 2) * i) % n for i in range(k)])]
    else:
        t_a = (k + 1) // 2
        families = [
            (_offsets_two, [3 * i for i in range(t_a)]),
            (_offsets_four, [3 * j + 2 for j in range(k - t_a)]),
        ]
    cycles = []
    for offsets, anchors in families:
        if anchors:
            base = HamCycle(tuple(o % n for o in offsets(n))).order
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


def pack_wheel(n: int) -> Packing:
    """floor((n-1)/3) cycles on the wheel; center stored as index n-1.

    Each convex zigzag on the n-1 rim points (`_zigzags(n - 1)`), in
    order, gets the center spliced in after `order[s]`, at the first slot
    s of r+1, r, p+1, p (p = (n-2)//4, r = (3n-4)//4) whose two rim ends no
    earlier cycle has joined to the center; with none free it takes p.
    Nothing else is searched: `_verify_family` is the proof, and a clash
    raises `ConstructionFailed`.
    """
    if n % 2 != 0 or n < 10:
        raise InvalidN(f"wheel packing needs even n >= 10, got {n}")
    # Each chord of a zigzag is crossed once; its chords grow to a
    # near-diameter and shrink again on the way out to the boundary couple
    # mid-way, and again on the way back.  A radial to rim point u crosses
    # each chord whose short arc holds u, so the center can replace only
    # the four chords nearest it, slots p, p+1 out and r, r+1 back: one
    # radial then crosses nothing, the other only the chord that crossed
    # the replaced one.  The zigzags are edge-disjoint, so cycles can
    # clash only on a radial.
    p, r = (n - 2) // 4, (3 * n - 4) // 4
    joined = set()  # rim points an earlier cycle joined to the center
    cycles = []
    for z in _zigzags(n - 1):
        o = z.order
        for s in (r + 1, r, p + 1, p):  # with none free, s ends at p
            if o[s] not in joined and o[s + 1] not in joined:
                break
        joined.add(o[s])
        joined.add(o[s + 1])
        cycles.append(HamCycle(o[: s + 1] + (n - 1,) + o[s + 1 :]))
    _verify_family(cycles, n, wheel_oracle(n), f"pack_wheel({n})")
    return Packing(tuple(cycles))
