import hashlib
import random
import re
from collections import Counter
from itertools import combinations, permutations

import pytest
from hypothesis import given, strategies as st

from hcpack import (
    Config,
    HamCycle,
    Point,
    are_edge_disjoint,
    boundary_edge_count,
    check_boundary_minimum,
    check_path_boundary,
    check_diagonal_sides,
    check_companion_edges,
    check_wheel_boundary,
    convex_oracle,
    coordinate_oracle,
    crossing_report,
    is_one_plane,
    pack_convex,
    pack_general,
    pack_wheel,
    radial_edge_count,
    verify_hamiltonian,
    verify_packing,
    wheel_oracle,
)
from hcpack.cycles import _coordinate_pairs, _crossing_pairs, _generic_pairs
from hcpack.errors import ConfigMismatch
from hcpack.geometry import CoordinateOracle, RingOracle, wheel_relabeling

from conftest import (
    CountingRing, CrossLedger, degenerate_lists, enumerated, general_instance,
    general_position_subset,
)


def test_verify_hamiltonian():
    assert verify_hamiltonian(HamCycle((0, 1, 2)), 3)
    with pytest.raises(ValueError):
        HamCycle((0, 1, 1))
    assert verify_hamiltonian(HamCycle((0, 2, 1, 3)), 4)
    assert not verify_hamiltonian(HamCycle((0, 2, 4)), 3)


def test_crossing_report_examples():
    orc = convex_oracle(4)
    assert crossing_report(HamCycle((0, 1, 2, 3)), orc).max_count == 0
    rep = crossing_report(HamCycle((0, 2, 1, 3)), orc)
    assert rep.counts[(0, 2)] == 1 and rep.counts[(1, 3)] == 1
    assert rep.counts[(1, 2)] == 0 and rep.counts[(0, 3)] == 0
    rep6 = crossing_report(HamCycle((0, 2, 4, 1, 5, 3)), convex_oracle(6))
    assert rep6.max_count >= 2


@pytest.mark.parametrize("orc", [
    convex_oracle(6),
    coordinate_oracle(general_instance(6, 1)),
    lambda e1, e2: pytest.fail(f"asked about {e1} and {e2}"),
], ids=["ring", "coordinate", "callable"])
def test_crossing_report_of_no_edges_is_empty(orc):
    """An empty edge list has no pair to decide on any of the three paths:
    the ring sweep, the lane pass and the pairwise scan."""
    rep = crossing_report([], orc)
    assert (rep.counts, rep.pairs, rep.max_count) == ({}, [], 0)


def test_is_one_plane():
    assert is_one_plane(HamCycle((0, 2, 1, 3)), convex_oracle(4))
    # the five-point star has every edge crossed twice
    assert not is_one_plane(HamCycle((0, 2, 4, 1, 3)), convex_oracle(5))
    assert is_one_plane(HamCycle((0, 1, 2, 3, 4)), convex_oracle(5))


@given(st.permutations(range(6)), st.integers(0, 5), st.booleans())
def test_crossing_report_rotation_reversal_invariant(perm, rot, flip):
    orc = convex_oracle(6)
    base = HamCycle(tuple(perm))
    rotated = tuple(perm[(i + rot) % 6] for i in range(6))
    if flip:
        rotated = rotated[::-1]
    other = HamCycle(rotated)
    r1 = crossing_report(base, orc)
    r2 = crossing_report(other, orc)
    assert r1.counts == r2.counts
    assert r1.max_count == r2.max_count


def _every_ham_cycle(n):
    for perm in permutations(range(1, n)):
        if perm[0] < perm[-1]:
            yield HamCycle((0,) + perm)


def _ledger_state(ledger):
    return {e: sorted(hits) for e, hits in ledger.crossed.items()}


@pytest.mark.parametrize(
    "n, orc",
    [(n, convex_oracle(n)) for n in range(3, 8)]
    + [(7, coordinate_oracle(general_instance(7, seed).points)) for seed in range(3)],
    ids=[f"convex{n}" for n in range(3, 8)] + [f"general7-seed{s}" for s in range(3)],
)
def test_crossing_report_and_ledger_agree(n, orc):
    """The bulk and incremental forms on every Hamiltonian cycle."""
    for c in _every_ham_cycle(n):
        report = crossing_report(c, orc)
        assert is_one_plane(c, orc) == (report.max_count <= 1), c
        per_edge = Counter(e for pair in report.pairs for e in pair)
        assert {e: per_edge[e] for e in c.edges()} == report.counts, c
        ledger = CrossLedger(orc)
        for e in c.edges():
            before = _ledger_state(ledger)
            if ledger.add(e):
                assert not ledger.add(e)  # already present
                ledger.remove(e)
                assert _ledger_state(ledger) == before, (c, e)
                assert ledger.add(e)
            else:
                assert _ledger_state(ledger) == before, (c, e)
        assert (len(ledger.crossed) == n) == (report.max_count <= 1), c
        if report.max_count <= 1:
            held = {(e, f) for e, hits in ledger.crossed.items() for f in hits}
            assert held == {p for e, f in report.pairs for p in ((e, f), (f, e))}, c


def _recording(orc, calls):
    """`orc`, logging each pair it is asked about to `calls`."""

    def oracle(e1, e2):
        calls.append((e1, e2))
        return orc(e1, e2)

    return oracle


def _row_major_report(es, orc):
    """Reference counts and pairs: i ascending, then j > i, asking
    `orc(es[i], es[j])` about each pair sharing no vertex."""
    counts, pairs = dict.fromkeys(es, 0), []
    for i, e1 in enumerate(es):
        for e2 in es[i + 1:]:
            if not set(e1) & set(e2) and orc(e1, e2):
                counts[e1] += 1
                counts[e2] += 1
                pairs.append((e1, e2))
    return counts, pairs


def _grid_sets():
    """General-position subsets of the 300 small-grid lists, 4 points or
    more: shared vertices and parallel edges are common."""
    for seed, points in degenerate_lists():
        kept = general_position_subset(points)
        if len(kept) >= 4:
            yield seed, kept


def test_one_plane_scan_matches_the_ledger_on_grid_sets():
    """On small-grid sets in general position, `is_one_plane` gives
    CrossLedger's answer, asking the oracle the same pairs in the same
    order; `crossing_report` gives the row-major scan's counts and
    pairs."""
    seen = Counter()
    for seed, points in _grid_sets():
        rng = random.Random(seed)
        orc = coordinate_oracle(points)
        for _ in range(20):
            c = HamCycle(rng.sample(range(len(points)), rng.randint(3, len(points))))
            ledger_calls, scan_calls = [], []
            ledger = CrossLedger(_recording(orc, ledger_calls))
            expected = all(map(ledger.add, c.edges()))
            assert is_one_plane(c, _recording(orc, scan_calls)) == expected, c
            assert scan_calls == ledger_calls, c
            seen[expected] += 1
            report = crossing_report(c, orc)
            assert (report.counts, report.pairs) == _row_major_report(c.edges(), orc), c
            seen["crossed"] += bool(report.pairs)
    assert seen[True] and seen[False] and seen["crossed"], seen


def _pairwise(orc):
    """The same oracle hidden from the ring sweep: the pairwise scan."""
    return lambda e1, e2: orc(e1, e2)


def _assert_same_report(es, orc):
    ring, scan = crossing_report(es, orc), crossing_report(es, _pairwise(orc))
    assert list(ring.counts.items()) == list(scan.counts.items()), es
    assert ring.pairs == scan.pairs, es
    assert ring.max_count == scan.max_count, es


@pytest.mark.parametrize("n", range(4, 9))
def test_ring_report_matches_pairwise_on_every_cycle(n):
    orcs = [convex_oracle(n)]
    if n % 2 == 0:
        orcs += [wheel_oracle(n, center) for center in range(n)]
    for c in _every_ham_cycle(n):
        for orc in orcs:
            _assert_same_report(c, orc)


@st.composite
def _ring_edge_lists(draw):
    wheel = draw(st.booleans())
    n = draw(st.integers(2, 6).map(lambda h: 2 * h) if wheel else st.integers(3, 12))
    orc = wheel_oracle(n, draw(st.integers(0, n - 1))) if wheel else convex_oracle(n)
    es = draw(st.lists(st.sampled_from(list(combinations(range(n), 2))), unique=True))
    flips = draw(st.lists(st.booleans(), min_size=len(es), max_size=len(es)))
    return [e[::-1] if f else e for e, f in zip(es, flips)], orc


@given(_ring_edge_lists())
def test_ring_report_matches_pairwise_on_edge_lists(case):
    _assert_same_report(*case)


class _LoggedCoordinates(CoordinateOracle):
    """A `CoordinateOracle`, still taking the lane pass, that logs each pair
    it is called on to `calls`."""

    __slots__ = ("calls",)

    def __init__(self, points):
        super().__init__(points)
        self.calls = []

    def __call__(self, e1, e2):
        self.calls.append((e1, e2))
        return super().__call__(e1, e2)


def _assert_flat_matches_scan(es, orc):
    """The lane pass over `es` gives the generic scan's pairs, in the same
    order, without calling the oracle; so do `crossing_report` and, on a
    cycle, `is_one_plane`.  Returns the pass's pairs."""
    edges = es.edges() if isinstance(es, HamCycle) else es
    orc.calls.clear()
    flat = list(_crossing_pairs(edges, orc))
    assert orc.calls == [], es
    assert flat == list(_crossing_pairs(edges, _pairwise(orc))), es
    assert crossing_report(es, orc) == crossing_report(es, _pairwise(orc)), es
    if isinstance(es, HamCycle):
        assert is_one_plane(es, orc) == is_one_plane(es, _pairwise(orc)), es
    return flat


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_flat_coordinate_pass_matches_the_pairwise_scan(seed):
    """In general position the lane pass never calls the oracle: on packer
    cycles (n = 16..64), random Hamiltonian orders of the same sets, which
    cross a lot, and the complete edge lists the exhaustive oracle screens
    (n = 8..10)."""
    rng = random.Random(seed)
    lists = [list(combinations(range(n), 2)) for n in (8, 9, 10)]
    sets = [general_instance(n, seed).points for n in (8, 9, 10)]
    for n in range(16, 65, 8):
        ps = general_instance(n, seed)
        orders = [rng.sample(range(n), n) for _ in range(3)]
        for c in list(pack_general(ps).cycles) + [HamCycle(o) for o in orders]:
            lists.append(c)
            sets.append(ps.points)
    crossings = 0
    for es, points in zip(lists, sets):
        crossings += len(_assert_flat_matches_scan(es, _LoggedCoordinates(points)))
    assert crossings > 2000, crossings


def test_flat_coordinate_pass_matches_the_pairwise_scan_on_grid_sets():
    """On small-grid sets in general position the lane pass gives the
    scan's pairs, on the complete edge list and on random cycles."""
    crossings = 0
    for seed, points in _grid_sets():
        rng = random.Random(seed)
        orc = _LoggedCoordinates(points)
        cases = [list(combinations(range(len(points)), 2))]
        cases += [HamCycle(rng.sample(range(len(points)), rng.randint(3, len(points))))
                  for _ in range(10)]
        for es in cases:
            crossings += len(_assert_flat_matches_scan(es, orc))
    assert crossings > 1000, crossings


def _moved(points):
    """The points scaled by 2^64 + 1 and moved by -2^90: the same
    orientations, with side values far past 64 bits."""
    s, t = 2**64 + 1, -(2**90)
    return [Point(p.x * s + t, p.y * s + t) for p in points]


BOUND = 2**40 - 1


def _bound_set():
    """The corners (+-M, +-M) of a square, M = 2^40 - 1, and points drawn in
    it, in general position: M fixes the lane width at 85 bits, and the
    side values of corner triples, 4 M^2, fill a lane to within two bits
    of its top one."""
    rng = random.Random(40)
    corners = [Point(x, y) for x in (-BOUND, BOUND) for y in (-BOUND, BOUND)]
    drawn = [Point(rng.randint(-BOUND, BOUND), rng.randint(-BOUND, BOUND)) for _ in range(16)]
    points = general_position_subset(corners + drawn)
    worst = max(abs((q.x - p.x) * (r.y - p.y) - (q.y - p.y) * (r.x - p.x))
                for p, q, r in combinations(points, 3))
    assert len(points) >= 8 and worst == 4 * BOUND**2 and worst.bit_length() == 82
    return points


def _differential_inputs():
    """(points, edge lists) for the lane pass: every cycle of general packs
    at n = 16, 17, 32, 33, 64 (seeds 1-3) with one random Hamiltonian order
    per set; random edge lists and cycles on the general-position grid
    sets, whose lines share many ends and run parallel; the bound set; and
    each of these again on its `_moved` copy."""
    cases = []
    for n in (16, 17, 32, 33, 64):
        for seed in (1, 2, 3):
            ps = general_instance(n, seed)
            order = HamCycle(random.Random(seed).sample(range(n), n))
            cases.append((ps.points, list(pack_general(ps).cycles) + [order]))
    for seed, points in _grid_sets():
        rng = random.Random(seed)
        edges = list(combinations(range(len(points)), 2))
        lists = [[e[::-1] if rng.random() < 0.5 else e
                  for e in rng.sample(edges, rng.randint(1, len(edges)))] for _ in range(3)]
        lists += [HamCycle(rng.sample(range(len(points)), rng.randint(3, len(points))))
                  for _ in range(3)]
        cases.append((points, lists))
    points = _bound_set()
    rng = random.Random(41)
    cases.append((points, [list(combinations(range(len(points)), 2))]
                  + [HamCycle(rng.sample(range(len(points)), len(points))) for _ in range(10)]))
    return cases + [(_moved(points), lists) for points, lists in cases]


def test_lane_pass_matches_the_generic_scan():
    """The lane pass gives `_generic_pairs`' list, pair for pair and in the
    same order, on every differential input, and on every cycle among
    them `is_one_plane` gives the generic scan's verdict."""
    crossings, verdicts = 0, Counter()
    for points, lists in _differential_inputs():
        orc = coordinate_oracle(points)
        for es in lists:
            edges = es.edges() if isinstance(es, HamCycle) else es
            lane = list(_coordinate_pairs(edges, orc.xs, orc.ys))
            assert lane == list(_generic_pairs(edges, orc)), es
            crossings += len(lane)
            if isinstance(es, HamCycle):
                verdict = is_one_plane(es, orc)
                assert verdict == is_one_plane(es, _pairwise(orc)), es
                verdicts[verdict] += 1
    assert crossings > 10_000 and verdicts[True] and verdicts[False], (crossings, verdicts)


@pytest.mark.parametrize("bad, good", [((-1, 2), (0, 3)), ((0, 6), (1, 2)), ((3, 3), (0, 1))],
                         ids=["negative", "past_the_end", "repeated"])
def test_coordinate_oracle_refuses_an_edge_naming_no_point(bad, good):
    """A call naming a negative vertex, one past the end or one vertex twice
    is refused as the ring sweep refuses it, in either argument and through
    the generic scan, which calls the wrapped oracle on the pair."""
    orc = coordinate_oracle(general_instance(6, 1))
    message = _ring_refusal([bad, good])
    for call in (lambda: orc(bad, good), lambda: orc(good, bad),
                 lambda: crossing_report([good, bad], _pairwise(orc))):
        with pytest.raises(ValueError, match=message):
            call()


def _ring_refusal(es):
    """The message the ring sweep refuses the edges `es` of 0..5 with."""
    with pytest.raises(ValueError, match="is not two distinct vertices of 0..5") as ring:
        crossing_report(es, convex_oracle(6))
    return re.escape(str(ring.value))


@pytest.mark.parametrize("bad", [(0.5, 2), (1.0, 2), (True, 2), (2, False)],
                         ids=["half", "float", "true", "false"])
def test_edge_rule_refuses_a_vertex_that_is_not_an_int(bad):
    """A float or bool vertex is refused with the edge rule's ValueError in
    a CoordinateOracle or RingOracle call, the lane pass and the ring sweep,
    never answered and never a stray TypeError."""
    ps = general_instance(12, 1)
    orc, ring, wheel = coordinate_oracle(ps), convex_oracle(12), wheel_oracle(12)
    message = re.escape(f"edge {bad} is not two distinct vertices of 0..11")
    for call in (lambda: orc(bad, (0, 3)), lambda: orc((0, 3), bad),
                 lambda: ring(bad, (0, 3)), lambda: wheel((0, 3), bad),
                 lambda: crossing_report([(0, 3), bad], orc),
                 lambda: crossing_report([bad, (0, 3)], ring),
                 lambda: crossing_report([bad, (0, 3)], wheel)):
        with pytest.raises(ValueError, match=message):
            call()


@pytest.mark.parametrize("es", [[(0, 9), (0, 2)], [(0, 1), (2, 9)], [(-1, 2), (0, 3)], [(0, 1), (3, 3)]])
def test_flat_pass_refuses_an_edge_naming_no_point(es):
    """An edge outside 0..n-1, or with one vertex twice, is refused as the
    ring sweep refuses it, before any pair is decided."""
    with pytest.raises(ValueError, match=_ring_refusal(es)):
        crossing_report(es, coordinate_oracle(general_instance(6, 1)))


@pytest.mark.parametrize("order", [(0, 1, 2, 9), (3, 0, -1, 2)])
def test_is_one_plane_refuses_a_cycle_naming_no_point(order):
    c = HamCycle(order)
    with pytest.raises(ValueError, match=_ring_refusal(c.edges())):
        is_one_plane(c, coordinate_oracle(general_instance(6, 1)))


@pytest.mark.parametrize(
    "orc, es",
    [
        (convex_oracle(5), [(0, 2), (1, 5)]),
        (convex_oracle(5), [(-1, 2), (0, 3)]),
        (wheel_oracle(6), [(0, 6), (1, 3)]),
        (wheel_oracle(6, 2), [(1, 3), (-1, 4)]),
        (convex_oracle(5), [(2, 2), (0, 3)]),
    ],
)
def test_ring_report_rejects_bad_edge(orc, es):
    with pytest.raises(ValueError):
        crossing_report(es, orc)


@pytest.mark.parametrize("pack, make_oracle, n", [
    (pack_convex, convex_oracle, 192),
    (pack_wheel, wheel_oracle, 64),
])
def test_ring_report_asks_no_pair(pack, make_oracle, n):
    """Convex and wheel reports never fall back to asking each pair."""
    counting = CountingRing(make_oracle(n))
    for c in pack(n).cycles:
        assert crossing_report(c, counting).max_count <= 1
    assert counting.calls == 0


def _pairwise_disjoint(cycles):
    return [[i == j or are_edge_disjoint(a, b) for j, b in enumerate(cycles)]
            for i, a in enumerate(cycles)]


def test_verify_packing_disjointness_matrix():
    never = lambda e1, e2: False  # noqa: E731
    # three cycles through the edge (0, 1), and one edge-disjoint from the first
    cycles = [HamCycle(o) for o in (
        (0, 1, 2, 3, 4, 5), (0, 1, 3, 5, 2, 4), (1, 0, 3, 2, 5, 4), (0, 2, 4, 1, 5, 3),
    )]
    report = verify_packing(cycles, 6, never)
    assert report["pairwise_disjoint"] == _pairwise_disjoint(cycles)
    assert not report["all_disjoint"] and not report["ok"]


@given(st.lists(st.permutations(range(6)), max_size=5), st.integers(-8, 14))
def test_verify_packing_disjointness_matches_pairwise(orders, stray):
    # `stray` replaces vertex 5 in the first cycle, leaving 0..5 unless 0..4
    cycles = [HamCycle(o) for o in orders]
    if cycles and stray not in cycles[0].order:
        cycles[0] = HamCycle(tuple(stray if v == 5 else v for v in cycles[0].order))
    report = verify_packing(cycles, 6, lambda e1, e2: False)
    expected = _pairwise_disjoint(cycles)
    assert report["pairwise_disjoint"] == expected
    assert report["all_disjoint"] == all(all(row) for row in expected)


def _in_range_only(orc, n):
    """`orc`, failing the test if asked about a vertex outside 0..n-1."""
    def ask(e1, e2):
        assert all(0 <= v < n for v in e1 + e2), (e1, e2)
        return orc(e1, e2)
    return ask


@pytest.mark.parametrize("orc", [
    convex_oracle(5),
    _in_range_only(coordinate_oracle(general_instance(5, 0).points), 5),
], ids=["convex", "general"])
@pytest.mark.parametrize("stray", [5, 9, -1])
def test_verify_packing_vertex_out_of_range(orc, stray):
    cycles = [HamCycle((0, 1, 2, 3, 4)), HamCycle((0, 2, 4, 1, stray))]
    report = verify_packing(cycles, 5, orc)
    assert report["cycles"][0]["hamiltonian"] and report["cycles"][0]["one_plane"]
    assert report["cycles"][1] == {"hamiltonian": False, "max_crossings": None, "one_plane": False}
    assert not report["ok"]


def _sweep_every_cycle(cycles, n, orc):
    """`verify_packing`'s report, restated with one `crossing_report` per
    cycle and the pairwise disjointness matrix."""
    rows = []
    for c in cycles:
        in_range = all(0 <= v < n for v in c.order)
        worst = crossing_report(c, orc).max_count if in_range else None
        rows.append({"hamiltonian": verify_hamiltonian(c, n), "max_crossings": worst,
                     "one_plane": in_range and worst <= 1})
    disjoint = _pairwise_disjoint(cycles)
    all_disjoint = all(all(row) for row in disjoint)
    return {
        "cycles": rows,
        "pairwise_disjoint": disjoint,
        "all_disjoint": all_disjoint,
        "ok": all_disjoint and all(r["hamiltonian"] and r["one_plane"] for r in rows),
    }


@st.composite
def _turned_packings(draw):
    """Turned copies of one cycle (random, or a packer's 1-plane one) mixed
    with unrelated cycles, some not Hamiltonian, some leaving 0..n-1."""
    wheel = draw(st.booleans())
    n = draw(st.sampled_from([10, 12, 14]) if wheel else st.integers(5, 14))
    if wheel:
        center = draw(st.integers(0, n - 1))
        orc, m, to_file = wheel_oracle(n, center), n - 1, wheel_relabeling(n, center)[1]
        packed = [tuple(to_file[v] for v in c.order) for c in pack_wheel(n).cycles]
    else:
        orc, m, to_file = convex_oracle(n), n, range(n)
        packed = [c.order for c in pack_convex(n).cycles]

    def turn(order, t):
        return tuple(to_file[p if p == m else (p + t) % m] for p in (orc.label[v] for v in order))

    def some_cycle():
        order = draw(st.permutations(range(n)))
        return tuple(order[:draw(st.integers(3, n))])

    base = draw(st.sampled_from(packed)) if draw(st.booleans()) else some_cycle()
    turns = draw(st.lists(st.integers(0, m - 1), min_size=2, max_size=6))
    orders = [turn(base, t) for t in turns] + [some_cycle() for _ in range(draw(st.integers(0, 3)))]
    cycles = [HamCycle(o) for o in draw(st.permutations(orders))]
    strays = st.tuples(st.integers(0, len(cycles) - 1), st.sampled_from([-1, n, n + 3]))
    for i, stray in draw(st.lists(strays, max_size=2)):
        if stray not in cycles[i].order:
            cycles[i] = HamCycle(cycles[i].order[:-1] + (stray,))
    return cycles, n, orc


@given(_turned_packings())
def test_verify_packing_matches_a_sweep_of_every_cycle(case):
    cycles, n, orc = case
    expected = _sweep_every_cycle(cycles, n, orc)
    assert verify_packing(cycles, n, orc) == expected
    assert verify_packing(cycles, n, _pairwise(orc)) == expected


@pytest.mark.parametrize("n", [10, 14])
def test_turn_keys_keep_the_wheel_center_apart(n):
    """A packed wheel cycle and its copy with the center swapped for one rim
    vertex are different rotation classes, whichever rim vertex it is; a
    turn that gave the center a rim position would let one key stand for
    both."""
    orc = wheel_oracle(n)
    for c in pack_wheel(n).cycles:
        for v in range(n - 1):
            swap = {v: n - 1, n - 1: v}
            other = HamCycle(tuple(swap.get(u, u) for u in c.order))
            assert verify_packing([c, other], n, orc) == _sweep_every_cycle([c, other], n, orc)


def test_ring_oracle_refuses_labels_its_calls_do_not_assume():
    # a convex ring is never relabeled by its calls, and a wheel's sweep
    # assumes each of 0..m once: a repeated label made the sweep raise
    # IndexError, a permuted convex one made calls and sweep disagree
    for m, label, wheel in [
        (4, [0, 1, 2, 3, 3], False),
        (4, [1, 0, 2, 3], False),
        (4, [0, 1, 2], False),
        (3, [0, 1, 2, 3, 3], True),
        (3, [0, 1, 1, 3], True),
    ]:
        with pytest.raises(ValueError, match="ring labels must be"):
            RingOracle(m, label, wheel)
    assert RingOracle(3, [3, 0, 2, 1], True).label == [3, 0, 2, 1]


def test_verify_packing_ring_of_the_wrong_size_raises_the_sweep_error():
    with pytest.raises(ValueError) as err:
        verify_packing([HamCycle((0, 1, 2, 3, 4, 5))], 6, convex_oracle(5))
    assert str(err.value) == "edge (4, 5) is not two distinct vertices of 0..4"


def test_are_edge_disjoint():
    a = HamCycle((0, 1, 2, 3))
    b = HamCycle((0, 2, 1, 3))
    assert not are_edge_disjoint(a, b)  # share (1,2) and (0,3)
    assert not are_edge_disjoint(a, a)
    c = HamCycle((0, 2, 4, 1, 5, 3))
    d = HamCycle((0, 1, 2, 3, 4, 5))
    assert set(c.edges()).isdisjoint(set(d.edges())) == are_edge_disjoint(c, d)


def test_boundary_edge_count():
    assert boundary_edge_count(HamCycle((0, 1, 2, 3, 4)), 5) == 5
    assert boundary_edge_count(HamCycle((0, 2, 1, 3)), 4) == 2
    with pytest.raises(ConfigMismatch):
        boundary_edge_count(HamCycle((0, 1, 2)), 3, config=Config.GENERAL)


def test_boundary_edge_count_wheel_ignores_radials():
    # rim 0..4 ccw, center sentinel 5: radial edges never count
    c = HamCycle((0, 1, 2, 3, 5, 4))
    assert boundary_edge_count(c, 6, config=Config.WHEEL) == 4


def test_check_boundary_minimum_examples():
    for cyc in enumerated("convex", 6):
        assert check_boundary_minimum(cyc, 6)
    # odd n enforces three boundary edges
    for cyc in enumerated("convex", 7):
        assert boundary_edge_count(cyc, 7) >= 3
    assert check_boundary_minimum(HamCycle(tuple(range(8))), 8)


def test_check_diagonal_sides_examples():
    c = HamCycle((0, 2, 1, 3, 4, 5))
    if is_one_plane(c, convex_oracle(6)):
        assert check_diagonal_sides(c, 6)
    assert check_diagonal_sides(HamCycle(tuple(range(6))), 6)  # no diagonals
    for n in (6, 7, 8):
        for cyc in enumerated("convex", n):
            assert check_diagonal_sides(cyc, n), cyc


def test_check_companion_edges_examples():
    for n in (6, 7, 8):
        for cyc in enumerated("convex", n):
            assert check_companion_edges(cyc, n), cyc
    assert check_companion_edges(HamCycle(tuple(range(8))), 8)  # >= 4 boundary: vacuous
    assert check_companion_edges(HamCycle((0, 1, 2)), 3)  # skipped below n=4


def test_check_path_boundary_examples():
    assert check_path_boundary([0, 1, 2, 3], 4)
    assert check_path_boundary([1, 0, 2, 3], 4)


def test_path_side_rule_needs_pendant_exemption():
    # 1-plane path whose diagonal (1,3) has no boundary edge on the side
    # {1,2,3}: the pendant 2 sits inside that side, so the predicate must
    # exempt it (the unrestricted per-side reading is falsified here)
    path = (0, 1, 3, 4, 2)
    orc = convex_oracle(5)
    edges = [tuple(sorted((path[i], path[i + 1]))) for i in range(4)]
    crossings = sum(
        orc(a, b)
        for i, a in enumerate(edges)
        for b in edges[i + 1 :]
        if not set(a) & set(b)
    )
    assert crossings == 1  # genuinely 1-plane
    assert not any(e in edges for e in [(1, 2), (2, 3)])
    assert check_path_boundary(path, 5)


def test_check_path_boundary_exhaustive():
    # every 1-plane Hamiltonian path on up to 7 convex points
    for n in (5, 6, 7):
        orc = convex_oracle(n)
        count = 0
        for perm in permutations(range(1, n)):
            path = (0,) + perm
            edges = [tuple(sorted((path[i], path[i + 1]))) for i in range(n - 1)]
            counts = {e: 0 for e in edges}
            ok = True
            for i in range(len(edges)):
                for j in range(i + 1, len(edges)):
                    a, b = edges[i], edges[j]
                    if set(a) & set(b):
                        continue
                    if orc(a, b):
                        counts[a] += 1
                        counts[b] += 1
                        if counts[a] > 1 or counts[b] > 1:
                            ok = False
            if ok:
                count += 1
                assert check_path_boundary(path, n), path
        assert count > 0


def test_verify_packing_reports_failures():
    ok = verify_packing([HamCycle((0, 1, 2, 3)), HamCycle((0, 2, 1, 3))], 4, convex_oracle(4))
    assert not ok["ok"] and not ok["all_disjoint"]
    good = verify_packing([HamCycle((0, 1, 2, 3))], 4, convex_oracle(4))
    assert good["ok"]


def test_packing_edge_budget():
    # any accepted packing fits inside the complete graph's edge budget
    from hcpack import pack_convex

    for n in (9, 12, 15):
        p = pack_convex(n)
        assert len(p.edge_union()) == len(p) * n <= n * (n - 1) // 2


# sha256 over every structure-predicate verdict below; recorded before the
# predicates moved onto one rim view, boundary test and side rule
STRUCTURE_VERDICT_DIGEST = "13ddd43390e72f08e4403a6e2d34b1e05d0e0118cb3e781bfdf823128cc04629"


def test_structure_predicates_unchanged():
    digest = hashlib.sha256()
    for n in range(4, 9):
        for c in _every_ham_cycle(n):
            digest.update(repr((
                "convex", c.order, boundary_edge_count(c, n), check_boundary_minimum(c, n),
                check_diagonal_sides(c, n), check_companion_edges(c, n),
            )).encode())
    for n in (6, 8):
        for center in (n - 1, 0, 2):
            for c in _every_ham_cycle(n):
                digest.update(repr((
                    "wheel", center, c.order, boundary_edge_count(c, n, Config.WHEEL, center),
                    radial_edge_count(c, n, center), check_wheel_boundary(c, n, center),
                )).encode())
    for n in range(3, 8):
        for path in permutations(range(n)):
            digest.update(repr(("path", path, check_path_boundary(path, n))).encode())
    assert digest.hexdigest() == STRUCTURE_VERDICT_DIGEST
