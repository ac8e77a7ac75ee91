"""Exhaustive ground truth at small n.

Enumeration numbers the edges between subset positions once and gives
each a bitmask of the edges that cross it.  The search fixes the smallest
vertex first and carries its path as two masks: the edges placed, and
those already crossed once.  An edge is refused when it crosses two path
edges or a crossed one, so a branch dies the moment any edge would be
crossed twice.  Reflections are killed by requiring second < last, and a
branch stops as soon as no unused vertex above the second remains, so
each cycle appears exactly once and already in canonical form.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from .cycles import (
    HamCycle,
    Packing,
    check_boundary_minimum,
    check_wheel_boundary,
    check_diagonal_sides,
    check_companion_edges,
    crossing_report,
    radial_edge_count,
)
from .errors import InvalidN, TooLarge
from .geometry import Config, Edge, PointSet, edge, oracle_for

DEFAULT_CAP = 8
ENV_CAP = "HCP_MAX_ORACLE_N"


def _cap(explicit: Optional[int]) -> int:
    if explicit is not None:
        return explicit
    raw = os.environ.get(ENV_CAP)
    if raw is None:
        return DEFAULT_CAP
    try:
        return int(raw)
    except ValueError:
        raise InvalidN(f"{ENV_CAP} must be an integer, got {raw!r}") from None


@dataclass
class EnumerationReport:
    n: int
    total_ham_cycles: int
    one_plane_count: int
    max_packing_size: int
    witness: Packing


def enumerate_1phc(
    ps: PointSet,
    subset: Optional[Sequence[int]] = None,
    max_n: Optional[int] = None,
) -> List[HamCycle]:
    """Every 1-plane Hamiltonian cycle on the subset, in canonical form."""
    vertices = sorted(subset) if subset is not None else list(range(len(ps)))
    cap = _cap(max_n)
    if len(vertices) > cap:
        raise TooLarge(f"{len(vertices)} points exceeds the cap of {cap}")
    oracle = oracle_for(ps)
    n = len(vertices)
    es = [(i, j) for i in range(n) for j in range(i + 1, n)]
    ids = {edge(vertices[i], vertices[j]): a for a, (i, j) in enumerate(es)}
    cross = [0] * len(es)  # cross[a]: the mask of edges that cross edge a
    for e1, e2 in crossing_report(list(ids), oracle).pairs:
        cross[ids[e1]] |= 1 << ids[e2]
        cross[ids[e2]] |= 1 << ids[e1]
    # step[i][j]: the bit of the edge between positions i and j, and its cross mask
    step = [[(0, 0)] * n for _ in range(n)]
    for a, (i, j) in enumerate(es):
        step[i][j] = step[j][i] = (1 << a, cross[a])
    out: List[HamCycle] = []
    order = [0]

    # `crossed` holds the edges crossed once: a new edge may cross one path edge, and not a crossed one.
    def rec(last: int, unused: int, edges: int, crossed: int) -> None:
        row = step[last]
        if not unused:
            hit = row[0][1] & edges
            if not (hit & crossed or hit & (hit - 1)):
                out.append(HamCycle(tuple(vertices[p] for p in order)))
            return
        # A cycle is kept with order[1] < order[-1], so a vertex above order[1] must remain.
        if len(order) > 1 and not unused >> order[1]:
            return
        for v in range(1, n):
            if not unused >> v & 1:
                continue
            b, c = row[v]
            hit = c & edges
            if hit:
                if hit & crossed or hit & (hit - 1):
                    continue
                now = crossed | hit | b
            else:
                now = crossed
            order.append(v)
            rec(v, unused ^ 1 << v, edges | b, now)
            order.pop()

    rec(0, (1 << n) - 2, 0, 0)
    return out


def _max_packing(cycles: List[HamCycle], n: int, total_edges: int):
    edge_ids: Dict[Edge, int] = {}
    masks: List[int] = []
    for c in cycles:
        m = 0
        for e in c.edges():
            if e not in edge_ids:
                edge_ids[e] = len(edge_ids)
            m |= 1 << edge_ids[e]
        masks.append(m)
    best_size = 0
    best: List[int] = []

    def rec(start: int, used_mask: int, chosen: List[int], free: int):
        nonlocal best_size, best
        if len(chosen) > best_size:
            best_size = len(chosen)
            best = list(chosen)
        if len(chosen) + min(len(masks) - start, free // n) <= best_size:
            return
        for i in range(start, len(masks)):
            if masks[i] & used_mask:
                continue
            chosen.append(i)
            rec(i + 1, used_mask | masks[i], chosen, free - n)
            chosen.pop()

    rec(0, 0, [], total_edges)
    return best_size, best


def max_packing_exact(
    ps: PointSet,
    subset: Optional[Sequence[int]] = None,
    max_n: Optional[int] = None,
) -> EnumerationReport:
    """Exact maximum number of pairwise edge-disjoint 1-plane Hamiltonian
    cycles, by branch and bound over the enumerated list."""
    vertices = sorted(subset) if subset is not None else list(range(len(ps)))
    n = len(vertices)
    cycles = enumerate_1phc(ps, vertices, max_n=max_n)
    size, chosen = _max_packing(cycles, n, n * (n - 1) // 2)
    return EnumerationReport(
        n=n,
        total_ham_cycles=math.factorial(n - 1) // 2,
        one_plane_count=len(cycles),
        max_packing_size=size,
        witness=Packing(tuple(cycles[i] for i in chosen)),
    )


def property_sweep(ps: PointSet, max_n: Optional[int] = None) -> dict:
    """Structure predicates over every enumerated 1-plane cycle.

    Convex sets run the boundary-edge minima and companion-edge checks;
    wheel sets run the two-radial-edges and per-side boundary checks.
    Returns the checked count and any counterexamples verbatim.
    """
    n = len(ps)
    cycles = enumerate_1phc(ps, max_n=max_n)
    counterexamples = []
    if ps.config is Config.CONVEX:
        for c in cycles:
            for name, pred in (
                ("boundary-minimum", check_boundary_minimum),
                ("diagonal-sides", check_diagonal_sides),
                ("companion-edges", check_companion_edges),
            ):
                if not pred(c, n):
                    counterexamples.append({"check": name, "cycle": list(c.order)})
    elif ps.config is Config.WHEEL:
        for c in cycles:
            if radial_edge_count(c, n, ps.center_index) != 2:
                counterexamples.append({"check": "two-radial", "cycle": list(c.order)})
            if not check_wheel_boundary(c, n, ps.center_index):
                counterexamples.append({"check": "wheel-boundary", "cycle": list(c.order)})
    else:
        raise ValueError("property sweep applies to convex and wheel sets")
    return {
        "n": n,
        "config": ps.config.value,
        "cycles_checked": len(cycles),
        "counterexamples": counterexamples,
    }
