"""Exhaustive ground truth at small n.

Enumeration fixes the smallest vertex first and kills reflections by
requiring second < last, so each cycle appears exactly once.  Crossing
counts are maintained incrementally along the search path: a branch dies
the moment any edge would be crossed twice, which keeps the full sweep at
n = 10 comfortably under a minute.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .cycles import (
    HamCycle,
    Packing,
    check_boundary_minimum,
    check_wheel_boundary,
    check_diagonal_sides,
    check_companion_edges,
    radial_edge_count,
)
from .errors import InvalidN, TooLarge
from .geometry import Config, CrossingOracle, Edge, PointSet, edge, oracle_for

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


def _cross_table(vertices: Sequence[int], oracle: CrossingOracle) -> Dict[Tuple[Edge, Edge], bool]:
    """Crossing lookup for every non-adjacent edge pair over `vertices`."""
    es = [edge(a, b) for i, a in enumerate(vertices) for b in vertices[i + 1 :]]
    table: Dict[Tuple[Edge, Edge], bool] = {}
    for i, e1 in enumerate(es):
        for e2 in es[i + 1 :]:
            if e1[0] in e2 or e1[1] in e2:
                continue
            v = oracle(e1, e2)
            table[(e1, e2)] = v
            table[(e2, e1)] = v
    return table


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
    table = _cross_table(vertices, oracle)
    n = len(vertices)
    start = vertices[0]
    rest = vertices[1:]
    out: List[HamCycle] = []
    order = [start]
    path_edges: List[Edge] = []
    counts: Dict[Edge, int] = {}
    used = {v: False for v in vertices}
    used[start] = True

    # A table lookup, not CrossLedger: a call per pair made the check benchmark 12-16% slower.
    def crossings_with_path(e: Edge):
        hit = []
        for f in path_edges:
            if f[0] in e or f[1] in e:
                continue
            if table[(e, f)]:
                if counts[f] >= 1 or hit:
                    return None
                hit.append(f)
        return hit

    def rec():
        if len(order) == n:
            if order[1] > order[-1]:
                return
            closing = edge(order[-1], start)
            if crossings_with_path(closing) is not None:
                out.append(HamCycle(tuple(order)).canonical())
            return
        for v in rest:
            if used[v]:
                continue
            e = edge(order[-1], v)
            hit = crossings_with_path(e)
            if hit is None:
                continue
            used[v] = True
            order.append(v)
            path_edges.append(e)
            counts[e] = len(hit)
            for f in hit:
                counts[f] += 1
            rec()
            for f in hit:
                counts[f] -= 1
            del counts[e]
            path_edges.pop()
            order.pop()
            used[v] = False

    rec()
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
