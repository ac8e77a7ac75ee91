"""Exhaustive ground truth at small n.

Enumeration lays the edges between the n subset positions out in rows of
w = n + 1 bits: the edge between positions i and j owns bit i*w + j of
row i and bit j*w + i of row j, and bit n of every row is a zero guard.
Each edge gets the mask of the edges that cross it, both bits of each.
The search fixes the smallest vertex first and grows one path, carrying
two masks beside the edges placed: `once`, the edges that cross a path
edge, and `dead`, the edges no completion of the path can use.  An edge
is dead when it would cross two path edges, when it crosses an edge that
is already crossed, or when it touches an interior path vertex.  The
candidates at a node are the live (not dead) bits of the path end's row
that fall on unused positions, so a branch dies the moment any edge would
be crossed twice.  A branch also dies when an unused vertex keeps fewer
than two live edges: the finished cycle needs two edges at it, and both
masks only grow along a branch, so no completion exists and the prune
loses no cycle.  Rows make that test one expression for all vertices:
subtracting the low bit of every row from the live mask with the guards
set clears each row's lowest live bit, and a second subtraction borrows
the guard of every row left empty.  When two or more unused vertices
remain after a child v, the completion is a path from v through all of
them back to 0, so v and 0 each need a live edge into the unused set, and
so does every unused vertex (it has a path neighbour there); copying the
unused set into every row (it is n bits wide, so nothing carries) and
masking it with the live edges puts these in rows, and the same borrow
tests all of them at once.  With one unused vertex left, its two live
edges are already those to v and to 0.  Reflections are killed by requiring
second < last, and a branch stops as soon as no unused vertex above the
second remains, so each cycle appears exactly once and already in
canonical form.  A node tests each child against the closing edge, the
reflection rule, the live-degree rule and the reachability rule before
the call, and counts it as a search node either way.  Each edge also has
a dense id, the index of its pair i < j in lexicographic order; the path
keeps its edges' ids, and each cycle is kept with its n edge ids.

The packing search is a branch and bound over cycle indices, with the
candidates of each node held as one bitset.  Per edge id it builds the
bitset of the cycles holding it, and from those, per cycle, the cycles it
clashes with and, per vertex, the holder sets of its edges.  A child is
entered only if its candidates could still add `more` cycles, the number
it needs to beat the best packing so far: at least `more` candidates, and
at every vertex at least 2 * `more` edges held by some candidate, since
each further cycle uses two edges at every vertex and no edge twice.
Each covered edge is counted at both of its ends, so a child passing the
second test covers at least n * `more` edges: it prunes every child that
the covered-edge bound (covered edges // n < `more`) would.  No packing in a
skipped subtree is larger than the best; and since children are taken
from low index to high and a tie is skipped, the witness is the first
maximum in index order, exactly as an unbounded search finds it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from itertools import combinations
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
from .geometry import Config, PointSet, edge, oracle_for

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
    enumeration visited: a count of its work that repeats exactly.  The
    subset must hold at least 3 distinct vertices of `ps`, or `ValueError`
    is raised before any search.
    """
    vertices = sorted(subset) if subset is not None else list(range(len(ps)))
    if len(set(vertices)) != len(vertices) or not all(0 <= v < len(ps) for v in vertices):
        raise ValueError(f"subset vertices must be distinct and in 0..{len(ps) - 1}")
    if len(vertices) < 3:
        raise ValueError("a cycle needs at least 3 vertices")
    cap = DEFAULT_CAP if max_n is None else max_n
    if len(vertices) > cap:
        raise TooLarge(f"{len(vertices)} points exceeds the cap of {cap}")
    oracle = oracle_for(ps)
    n = len(vertices)
    w = n + 1  # row width: positions 0..n-1, then the guard bit n
    pair = {  # both bits of the edge between positions i < j
        edge(vertices[i], vertices[j]): (i, j, 1 << i * w + j | 1 << j * w + i)
        for i in range(n)
        for j in range(i + 1, n)
    }
    cross = dict.fromkeys(pair, 0)  # per edge, the mask of the edges crossing it
    for e1, e2 in crossing_report(list(pair), oracle).pairs:
        cross[e1] |= pair[e2][2]
        cross[e2] |= pair[e1][2]
    # step[i][j]: the edge bit i*w + j (i < j) of the edge between positions i
    # and j, its cross mask and its dense id; crossed[i*w + j]: that cross mask
    # again; inc[i]: the mask of the edges at position i
    step = [[(0, 0, 0)] * n for _ in range(n)]
    crossed = [0] * (n * w)
    inc = [0] * n
    full = 0  # every edge, both bits
    for k, (e, (i, j, both)) in enumerate(pair.items()):
        step[i][j] = step[j][i] = (1 << i * w + j, cross[e], k)
        crossed[i * w + j] = cross[e]
        inc[i] |= both
        inc[j] |= both
        full |= both
    low_bits = sum(1 << i * w for i in range(n))
    guard_bits = low_bits << n
    gbit = [1 << i * w + n for i in range(n)]  # gbit[i]: the guard bit of row i
    out = _Enumerated()
    out.edge_ids = []
    order = [0]
    path: List[int] = []  # the ids of the path's edges
    nodes = 1

    # `edges`: the path's edge bits; `once`: the edges that cross a path edge;
    # `dead`: the edges no completion can use; `guards`: the guard bits of the
    # unused rows.  Each child is counted as a node and tested here, so only
    # children that pass every prune are entered.
    def rec(last: int, unused: int, guards: int, edges: int, once: int, dead: int) -> None:
        nonlocal nodes
        row = step[last]
        # Stepping on from `last` makes it interior, unless it is the fixed start.
        shut = dead | inc[last] if last else dead
        cands = (full & ~dead) >> last * w & unused
        second = order[1] if len(order) > 1 else 0  # 0 until the path has an edge
        reach = guards | gbit[0]  # the unused rows, a child's among them, and the start's
        while cands:
            low = cands & -cands
            cands ^= low
            v = low.bit_length() - 1
            nodes += 1
            b, c, k = row[v]
            now = shut | c & once
            hit = c & edges  # at most one path edge, or b would be dead
            if hit:
                now |= c | crossed[hit.bit_length() - 1]
            rest = unused ^ low
            if not rest:
                # The closing edge to position 0 owns bit v of row 0.
                if not now >> v & 1:
                    out.append(HamCycle(tuple(vertices[p] for p in order) + (vertices[v],)))
                    out.edge_ids.append(path + [k, step[0][v][2]])  # with the closing edge
                continue
            # A cycle is kept with order[1] < order[-1], so a vertex above order[1] must remain.
            if not rest >> (second or v):
                continue
            # The finished cycle uses two live edges at every unused vertex: clear
            # the lowest live bit of each row, then a row left empty borrows its guard.
            live = full & ~now
            two = live & ((live | guard_bits) - low_bits)
            left = guards ^ gbit[v]
            if ((two | guard_bits) - low_bits) & left != left:
                continue
            # With two or more vertices left, v, 0 and each of them need a live edge into `rest`.
            into = live & rest * low_bits
            if rest & rest - 1 and ((into | guard_bits) - low_bits) & reach != reach:
                continue
            order.append(v)
            path.append(k)
            rec(v, rest, left, edges | b, once | c, now)
            path.pop()
            order.pop()

    rec(0, (1 << n) - 2, guard_bits ^ gbit[0], 0, 0, 0)
    out.search_nodes = nodes
    return out


class _Enumerated(list):
    """The cycles `enumerate_1phc` found, with the search nodes it visited
    and, per cycle, the ids of its edges: the pairs i < j of subset
    positions, numbered in lexicographic order."""

    search_nodes: int
    edge_ids: List[List[int]]


def _max_packing(edge_ids: List[List[int]], n: int):
    """The first maximum packing in index order of the cycles with these
    edge ids, and the search nodes visited.  `holders[e]` is the bitset of
    the cycles using edge id e, `at[x]` the holders of the edges at vertex
    x, and `clash[i]` the cycles sharing an edge with cycle i, i included."""
    holders = [0] * (n * (n - 1) // 2)
    for i, ids in enumerate(edge_ids):
        for e in ids:
            holders[e] |= 1 << i
    at = [[h for h, p in zip(holders, combinations(range(n), 2)) if x in p] for x in range(n)]
    clash = [reduce(int.__or__, map(holders.__getitem__, ids)) for ids in edge_ids]
    best: List[int] = []
    chosen: List[int] = []
    nodes = 0

    def rec(cands: int) -> None:
        nonlocal best, nodes
        nodes += 1
        if len(chosen) > len(best):
            best = list(chosen)
        while cands:
            low = cands & -cands
            cands ^= low
            i = low.bit_length() - 1
            sub = cands & ~clash[i]
            more = len(best) - len(chosen)  # further cycles the child needs to beat the best
            if sub.bit_count() < more:
                continue
            if any(sum(1 for h in hs if h & sub) < 2 * more for hs in at):
                continue
            chosen.append(i)
            rec(sub)
            chosen.pop()

    rec((1 << len(edge_ids)) - 1)
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
    cycles = enumerate_1phc(ps, subset, max_n=max_n)
    n = len(ps) if subset is None else len(subset)
    chosen, packing_nodes = _max_packing(cycles.edge_ids, n)
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
