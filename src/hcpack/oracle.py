"""Exhaustive ground truth at small n.

Enumeration numbers the edges between subset positions once and gives
each a bitmask of the edges that cross it.  The search fixes the smallest
vertex first and grows one path, carrying two masks beside the edges
placed: `once`, the edges that cross a path edge, and `dead`, the edges
no completion of the path can use.  An edge is dead when it would cross
two path edges, when it crosses an edge that is already crossed, or when
it touches an interior path vertex.  A candidate edge is refused by one
test against `dead`, so a branch dies the moment any edge would be
crossed twice.  A branch also dies when an unused vertex keeps fewer than
two live (not dead) edges: the finished cycle needs two edges at it, and
both masks only grow along a branch, so no completion exists and the
prune loses no cycle.  Reflections are killed by requiring second < last,
and a branch stops as soon as no unused vertex above the second remains,
so each cycle appears exactly once and already in canonical form.

The packing search is a branch and bound over cycle indices, with the
candidates of each node held as one bitset.  A child is entered only if
the cycles chosen, plus the smaller of its candidate count and the edges
its candidates cover divided by n, beats the best packing so far.  Each
further cycle is a candidate and needs n edges of its own, so no packing
in a skipped subtree is larger than the best; and since children are
taken from low index to high and a tie is skipped, the witness is the
first maximum in index order, exactly as an unbounded search finds it.
"""

from __future__ import annotations

import math
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
from .errors import TooLarge
from .geometry import Config, Edge, PointSet, edge, oracle_for

DEFAULT_CAP = 8


@dataclass
class EnumerationReport:
    n: int
    total_ham_cycles: int
    one_plane_count: int
    max_packing_size: int
    witness: Packing
    search_nodes: Dict[str, int]  # search nodes visited: enumeration, packing


def enumerate_1phc(
    ps: PointSet,
    subset: Optional[Sequence[int]] = None,
    max_n: Optional[int] = None,
) -> List[HamCycle]:
    """Every 1-plane Hamiltonian cycle on the subset, in canonical form.

    The list also carries `search_nodes`, the number of search nodes the
    enumeration visited: a count of its work that repeats exactly.
    """
    vertices = sorted(subset) if subset is not None else list(range(len(ps)))
    if len(vertices) < 3:
        raise ValueError("a cycle needs at least 3 vertices")
    cap = DEFAULT_CAP if max_n is None else max_n
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
    # step[i][j]: the bit of the edge between positions i and j, and its cross mask;
    # inc[i]: the mask of the edges at position i
    step = [[(0, 0)] * n for _ in range(n)]
    inc = [0] * n
    for a, (i, j) in enumerate(es):
        step[i][j] = step[j][i] = (1 << a, cross[a])
        inc[i] |= 1 << a
        inc[j] |= 1 << a
    out = _Enumerated()
    order = [0]
    nodes = 0

    # `once`: the edges that cross a path edge; `dead`: the edges no completion can use.
    def rec(last: int, unused: int, edges: int, once: int, dead: int) -> None:
        nonlocal nodes
        nodes += 1
        row = step[last]
        if not unused:
            if not row[0][0] & dead:
                out.append(HamCycle(tuple(vertices[p] for p in order)))
            return
        # A cycle is kept with order[1] < order[-1], so a vertex above order[1] must remain.
        if len(order) > 1 and not unused >> order[1]:
            return
        # The finished cycle uses two live edges at every unused vertex.
        rest = unused
        while rest:
            low = rest & -rest
            live = inc[low.bit_length() - 1] & ~dead
            if not live & (live - 1):
                return
            rest ^= low
        # Stepping on from `last` makes it interior, unless it is the fixed start.
        shut = dead | inc[last] if last else dead
        for v in range(1, n):
            if not unused >> v & 1:
                continue
            b, c = row[v]
            if b & dead:
                continue
            now = shut | c & once
            hit = c & edges  # at most one path edge, or b would be dead
            if hit:
                now |= c | cross[hit.bit_length() - 1]
            order.append(v)
            rec(v, unused ^ 1 << v, edges | b, once | c, now)
            order.pop()

    rec(0, (1 << n) - 2, 0, 0, 0)
    out.search_nodes = nodes
    return out


class _Enumerated(list):
    """The cycles `enumerate_1phc` found, with the search nodes it visited."""

    search_nodes: int


def _max_packing(cycles: List[HamCycle], n: int):
    """The first maximum packing in index order, and the search nodes visited."""
    edge_lists = [c.edges() for c in cycles]
    holders: Dict[Edge, int] = {}  # per edge, the bitset of the cycles using it
    for i, es in enumerate(edge_lists):
        for e in es:
            holders[e] = holders.get(e, 0) | 1 << i
    held = list(holders.values())
    clash = []  # clash[i]: the cycles sharing an edge with cycle i, i included
    for es in edge_lists:
        m = 0
        for e in es:
            m |= holders[e]
        clash.append(m)
    best: List[int] = []
    chosen: List[int] = []
    nodes = 0

    def rec(cands: int) -> None:
        nonlocal best, nodes
        nodes += 1
        if len(chosen) > len(best):
            best = list(chosen)
        size = len(chosen) + 1
        while cands:
            low = cands & -cands
            cands ^= low
            i = low.bit_length() - 1
            sub = cands & ~clash[i]
            room = min(sub.bit_count(), sum(1 for h in held if h & sub) // n)
            if size + room <= len(best):
                continue
            chosen.append(i)
            rec(sub)
            chosen.pop()

    rec((1 << len(cycles)) - 1)
    return best, nodes


def max_packing_exact(
    ps: PointSet,
    subset: Optional[Sequence[int]] = None,
    max_n: Optional[int] = None,
) -> EnumerationReport:
    """Exact maximum number of pairwise edge-disjoint 1-plane Hamiltonian
    cycles, by branch and bound over the enumerated list.

    Both searches prune only what provably cannot succeed (see the module
    docstring), so the size and the witness, the first maximum packing in
    enumeration order, are those of an exhaustive search.  `search_nodes`
    counts the nodes each search visited.
    """
    vertices = sorted(subset) if subset is not None else list(range(len(ps)))
    n = len(vertices)
    cycles = enumerate_1phc(ps, vertices, max_n=max_n)
    chosen, packing_nodes = _max_packing(cycles, n)
    return EnumerationReport(
        n=n,
        total_ham_cycles=math.factorial(n - 1) // 2,
        one_plane_count=len(cycles),
        max_packing_size=len(chosen),
        witness=Packing(tuple(cycles[i] for i in chosen)),
        search_nodes={"enumeration": cycles.search_nodes, "packing": packing_nodes},
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
