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
the call, and counts it as a search node either way.

On a ring whose labels are the subset positions in order (every convex
set, and a wheel stored with its center last, each over all its
vertices), turning the rim maps 1-plane cycles to 1-plane cycles, so the
search grows one representative row per rotation class, or a few, and
turns out the rest.  With off(u, x) = (x - u) mod m the turns from rim
position u counterclockwise to x (m to or from a wheel's center, position
m), a rim vertex's nearer neighbour is the one it reaches in fewer
turns; in a canonical row 0's is second = order[1], `second` turns away.
A row is grown only while no interior rim vertex reaches a neighbour in
fewer turns than `second`, and while every vertex u whose neighbour w is
`second` turns away reaches w's other neighbour in no fewer turns than 0
reaches order[2].  Both rules are mask tests on a node's candidates:
when `last` has become interior the branch ends if last reaches
order[-2] in fewer than `second` turns, and otherwise keeps only the
candidates last reaches in at least `second`; at the triple p =
order[-2], last, v, a p that reaches last in `second` turns keeps only
the candidates it reaches in at least order[2] turns, and the one
candidate that reaches last in `second` turns is dropped if it reaches p
in fewer.  A turn that brings rim vertex u to 0 gives a row whose
(order[1], order[2]) is (the turns from u to its nearer neighbour w, the
turns from u to w's other neighbour); the turn that makes this pair
least passes both rules, so every rotation class keeps a row and no
cycle is lost.  Each row found and not yet produced is then turned by t =
1..m-1 (relabel, rotate 0 to the front, take the canonical direction)
into a set, and sorting it gives the rows in the order the plain search
finds them, which is lexicographic.  On such a ring the search-node count
is that of the representative search alone: a candidate the masks remove
is not counted.  A general set, a proper subset, and a wheel whose center
is not stored last take the plain search.

Each edge has a dense id, the index of its pair i < j in lexicographic
order.  Each cycle is kept as a row of positions, and its n edge ids are
read off the row after the search; only `enumerate_1phc`, and
`max_packing_exact` for its witness, make `HamCycle`s of rows.

The packing search asks one question: are there t pairwise edge-disjoint
cycles among the candidates, a bitset over cycle indices?  It builds,
per edge id e, `holders[e]`, the bitset of the cycles holding e, and
never a table over pairs of cycles, so its memory is linear in the cycle
count.  An edge is live when a candidate holds it, and a vertex's slack
is its live edges minus 2t: each further cycle uses two edges at every
vertex and no edge twice, so the answer is no as soon as any slack is
negative.  Otherwise the search takes, among the live edges at the
vertices with the least slack, the one with the fewest holders among the
candidates, the lowest id on a tie (Algorithm X's most-constrained
rule), and branches over those holders: a child takes one and keeps
t - 1 and the candidates that share no edge with it, cleared by the OR
of the holders of its edges.  One more branch drops the edge, clearing its
holders and keeping t; it is taken only when the slack is positive,
since at slack 0 every live edge at the vertex is used.  Two holders of
one edge clash, so the branches split the packings without overlap and
the answer is exact.  The optimum is the first t, counting up from 1,
that is answered no, less one.  The witness needs no backtracking: for
more = optimum down to 1 it takes the lowest-index candidate i whose
candidates above i that share no edge with i still hold more - 1 cycles.
That is the first maximum packing in index order, the one an exhaustive
search over increasing indices meets first.  A packing node is one call
of the feasibility search, over every question the optimum and the
witness ask.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from itertools import combinations
from typing import Dict, Iterator, List, Optional, Sequence

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
from .geometry import Config, PointSet, RingOracle, check_subset, edge, oracle_for

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
    """Every 1-plane Hamiltonian cycle on the subset, in canonical form
    and lexicographic order.

    The list also carries `search_nodes`, the number of search nodes the
    enumeration visited: a count of its work that repeats exactly.  On a
    convex set, or a wheel stored with its center last, searched over all
    its vertices, the search grows only rows that represent their rotation
    class and turns out the rest (see the module docstring), and the count
    is that of the representative search.  The subset must hold at least 3
    distinct vertices of `ps`, or `ValueError` is raised before any search.
    """
    vertices, rows, edge_ids, nodes = _search(ps, subset, max_n)
    out = _Enumerated(HamCycle(tuple(vertices[p] for p in row)) for row in rows)
    out.edge_ids = edge_ids
    out.search_nodes = nodes
    return out


def _search(ps: PointSet, subset: Optional[Sequence[int]], max_n: Optional[int]):
    """The enumeration itself: the sorted subset `vertices`, and per cycle
    its row of subset positions, canonical, in lexicographic order, and its
    edge ids, then the search nodes visited.  No `HamCycle` is built here."""
    vertices = check_subset(subset, len(ps)) if subset is not None else list(range(len(ps)))
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
    # and j and its cross mask; eid[i][j]: its dense id; crossed[i*w + j]:
    # that cross mask again; inc[i]: the mask of the edges at position i
    step = [[(0, 0)] * n for _ in range(n)]
    eid = [[0] * n for _ in range(n)]
    crossed = [0] * (n * w)
    inc = [0] * n
    full = 0  # every edge, both bits
    for k, (e, (i, j, both)) in enumerate(pair.items()):
        step[i][j] = step[j][i] = (1 << i * w + j, cross[e])
        eid[i][j] = eid[j][i] = k
        crossed[i * w + j] = cross[e]
        inc[i] |= both
        inc[j] |= both
        full |= both
    low_bits = sum(1 << i * w for i in range(n))
    guard_bits = low_bits << n
    gbit = [1 << i * w + n for i in range(n)]  # gbit[i]: the guard bit of row i
    # On a ring whose labels are the positions, only representative rows are
    # grown (see the module docstring): off[u][x] is the turns from rim
    # position u ccw to x, m to or from the center (position m of a wheel),
    # and ok[u][s] the positions u reaches in at least s turns.
    ring = isinstance(oracle, RingOracle) and list(oracle.label) == vertices
    if ring:
        m = oracle.m
        off = [[(x - u) % m if u < m and x < m else m for x in range(n)] for u in range(n)]
        ok = [[sum(1 << x for x in range(n) if off[u][x] >= s) for s in range(m + 1)]
              for u in range(n)]
    rows: List[tuple] = []
    order = [0]
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
        if ring and second:
            # `last` is interior: it may reach neither neighbour in fewer
            # turns than 0 reaches order[1].
            p = order[-2]
            if off[last][p] < second:
                return
            cands &= ok[last][second]
            if len(order) > 2:
                # A tie at the triple p, last, v: the vertex at `second` turns
                # before last may not reach last's other neighbour in fewer
                # turns than 0 reaches order[2].
                third = order[2]
                if off[p][last] == second:
                    cands &= ok[p][third]
                tie = (last - second) % m  # the candidate reaching last in `second` turns
                if last < m and off[tie][p] < third:
                    cands &= ~(1 << tie)
        reach = guards | gbit[0]  # the unused rows, a child's among them, and the start's
        while cands:
            low = cands & -cands
            cands ^= low
            v = low.bit_length() - 1
            nodes += 1
            b, c = row[v]
            now = shut | c & once
            hit = c & edges  # at most one path edge, or b would be dead
            if hit:
                now |= c | crossed[hit.bit_length() - 1]
            rest = unused ^ low
            if not rest:
                # The closing edge to position 0 owns bit v of row 0.
                if not now >> v & 1:
                    rows.append((*order, v))
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
            rec(v, rest, left, edges | b, once | c, now)
            order.pop()

    rec(0, (1 << n) - 2, guard_bits ^ gbit[0], 0, 0, 0)
    if ring:
        rows = _turned(rows, m)
    edge_ids = [[eid[a][b] for a, b in zip(row, row[1:] + row[:1])] for row in rows]
    return vertices, rows, edge_ids, nodes


def _turned(rows: List[tuple], m: int) -> List[tuple]:
    """Every row that turning the rim of m positions makes of one of `rows`,
    each once, canonical (0 first, order[1] < order[-1]) and sorted: the
    enumeration's own order.  A wheel's center, position m, stays put."""
    turns = [[(x + t) % m for x in range(m)] + [m] for t in range(m)]
    out = set()
    for row in rows:
        if row in out:
            continue
        for turn in turns:
            r = list(map(turn.__getitem__, row))
            i = r.index(0)
            r = r[i:] + r[:i]
            out.add(tuple(r) if r[1] < r[-1] else (0, *r[:0:-1]))
    return sorted(out)


class _Enumerated(list):
    """The cycles `enumerate_1phc` found, with the search nodes it visited
    and, per cycle, the ids of its edges: the pairs i < j of subset
    positions, numbered in lexicographic order."""

    search_nodes: int
    edge_ids: List[List[int]]


def _max_packing(edge_ids: List[List[int]], n: int):
    """The first maximum packing in index order of the cycles with these
    edge ids, and the packing nodes visited (see the module docstring).
    `holders[e]` is the bitset of the cycles using edge id e, written one
    byte per cycle and read as one binary numeral; `inc[x]` is the mask of
    the edge ids at position x, and `edge_mask[i]` that of cycle i.  A
    child's candidates are a subset of its parent's, so its live edges are
    found among the parent's, or as the union of its candidates' edge
    masks when it has fewer candidates than the parent has live edges."""
    ends = list(combinations(range(n), 2))  # ends[e]: the positions of edge id e
    marks = [bytearray(b"0" * len(edge_ids)) for _ in ends]
    for i, ids in enumerate(edge_ids):
        for e in ids:
            marks[e][i] = 49  # ord("1")
    holders = [int(m[::-1], 2) for m in marks]
    bit = [1 << e for e in range(len(ends))]
    edge_mask = [sum(map(bit.__getitem__, ids)) for ids in edge_ids]  # distinct ids: sum is OR
    inc = [0] * n
    for e, (a, b) in enumerate(ends):
        inc[a] |= bit[e]
        inc[b] |= bit[e]
    every_edge = sum(bit)
    nodes = 0

    def clear(cands: int, i: int) -> int:
        """The candidates that share no edge with cycle i (i itself gone)."""
        return cands & ~reduce(int.__or__, map(holders.__getitem__, edge_ids[i]))

    def branch(cands: int, t: int, live: int):
        """The live edges, found among `live`, the least slack, and the
        candidates holding the edge to branch on; None when a slack is
        negative."""
        if cands.bit_count() < live.bit_count():
            live = 0
            for i in _bits(cands):
                live |= edge_mask[i]
        else:
            for e in _bits(live):
                if not holders[e] & cands:
                    live ^= 1 << e
        slack = [(live & x).bit_count() - 2 * t for x in inc]
        least = min(slack)
        if least < 0:
            return None
        tight = 0  # the live edges at the vertices of least slack
        for x, s in zip(inc, slack):
            if s == least:
                tight |= x & live
        fewest = min((holders[e] & cands for e in _bits(tight)), key=int.bit_count)
        return live, least, fewest

    def holds(cands: int, t: int, live: int = every_edge) -> bool:
        """Are there t pairwise edge-disjoint cycles among `cands`?  Every
        edge outside `live` is held by no candidate."""
        nonlocal nodes
        nodes += 1
        if not t:
            return True
        found = branch(cands, t, live)
        if found is None:
            return False
        live, least, fewest = found
        if any(holds(clear(cands, i), t - 1, live) for i in _bits(fewest)):
            return True
        return least > 0 and holds(cands & ~fewest, t, live)

    everything = (1 << len(edge_ids)) - 1
    best = 0
    while holds(everything, best + 1):
        best += 1
    chosen: List[int] = []
    cands = everything
    for more in range(best, 0, -1):
        while True:  # take the lowest candidate that leaves room for more - 1
            low = cands & -cands
            cands ^= low  # the candidates above it
            i = low.bit_length() - 1
            rest = clear(cands, i)
            if holds(rest, more - 1):
                break
        chosen.append(i)
        cands = rest
    return chosen, nodes


def _bits(x: int) -> Iterator[int]:
    """The indices of the set bits of x, lowest first."""
    while x:
        low = x & -x
        yield low.bit_length() - 1
        x ^= low


def max_packing_exact(
    ps: PointSet,
    subset: Optional[Sequence[int]] = None,
    max_n: Optional[int] = None,
) -> EnumerationReport:
    """Exact maximum number of pairwise edge-disjoint 1-plane Hamiltonian
    cycles, by a most-constrained-edge search over the enumerated cycles.

    The enumeration keeps each cycle as a row of positions and its edge
    ids; the packing search reads only the edge ids, so the only cycles
    built as `HamCycle`s are the witness's.  Both searches prune only what
    provably cannot succeed (see the module docstring), so the size and
    the witness, the first maximum packing in enumeration order, are
    those of an exhaustive search.  `search_nodes` counts the enumeration's
    nodes and the packing nodes: the calls of the feasibility search that
    decide the optimum and then the witness.
    """
    vertices, rows, edge_ids, enumeration_nodes = _search(ps, subset, max_n)
    n = len(vertices)
    chosen, packing_nodes = _max_packing(edge_ids, n)
    return EnumerationReport(
        n=n,
        total_ham_cycles=math.factorial(n - 1) // 2,
        one_plane_count=len(rows),
        max_packing_size=len(chosen),
        witness=Packing(tuple(HamCycle(tuple(vertices[p] for p in rows[i])) for i in chosen)),
        search_nodes={"enumeration": enumeration_nodes, "packing": packing_nodes},
    )


def property_sweep(ps: PointSet, max_n: Optional[int] = None) -> dict:
    """Structure predicates over every enumerated 1-plane cycle.

    Convex sets run the boundary-edge minima and companion-edge checks;
    wheel sets run the two-radial-edges and per-side boundary checks.
    Returns the checked count and any counterexamples verbatim; a general
    set raises ValueError before anything is enumerated.
    """
    if ps.config is Config.GENERAL:
        raise ValueError("property sweep applies to convex and wheel sets")
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
    else:
        for c in cycles:
            if radial_edge_count(c, n, ps.center_index) != 2:
                counterexamples.append({"check": "two-radial", "cycle": list(c.order)})
            if not check_wheel_boundary(c, n, ps.center_index):
                counterexamples.append({"check": "wheel-boundary", "cycle": list(c.order)})
    return {
        "n": n,
        "config": ps.config.value,
        "cycles_checked": len(cycles),
        "counterexamples": counterexamples,
    }
