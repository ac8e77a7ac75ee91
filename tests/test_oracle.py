import hashlib
import math
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings, strategies as st

from hcpack import (
    Config,
    HamCycle,
    PointSet,
    are_edge_disjoint,
    enumerate_1phc,
    generate,
    is_one_plane,
    max_packing_exact,
    oracle_for,
    property_sweep,
)
from hcpack import oracle
from hcpack.errors import TooLarge

from conftest import (
    convex_instance,
    enumerated,
    general_instance,
    reference_max_packing,
    wheel_instance,
)

# independently derived with a brute-force permutation enumerator; the
# values for n <= 7 are re-derived below on every run
CONVEX_1PHC_COUNTS = {3: 1, 4: 3, 5: 6, 6: 13, 7: 29, 8: 65, 9: 148}
WHEEL_10_1PHC_COUNT = 1044


def naive_enumerate(ps, subset=None):
    """Permutation-based enumerator: the oracle for the fast one."""
    first, *rest = sorted(subset) if subset is not None else range(len(ps))
    orc = oracle_for(ps)
    out = set()
    for perm in permutations(rest):
        cyc = HamCycle((first,) + perm)
        if is_one_plane(cyc, orc):
            out.add(cyc.canonical().order)
    return out


def naive_cases(convex, wheel, general):
    """(config, n, seed) parameters; convex cases keep the bare `n` as id."""
    return (
        [pytest.param("convex", n, None, id=str(n)) for n in convex]
        + [pytest.param("wheel", n, None, id=f"wheel-{n}") for n in wheel]
        + [pytest.param("general", n, s, id=f"general-{n}-{s}") for n in general for s in (0, 1, 2)]
    )


def naive_case(config, n, seed):
    if config == "convex":
        return convex_instance(n)
    if config == "wheel":
        return wheel_instance(n)
    return general_instance(n, seed)


@pytest.mark.parametrize("config,n,seed", naive_cases((3, 4, 5, 6, 7), (6, 8), (6, 7, 8)))
def test_enumeration_matches_naive(config, n, seed):
    ps = naive_case(config, n, seed)
    fast = [c.order for c in enumerate_1phc(ps)]
    assert len(fast) == len(set(fast))
    assert set(fast) == naive_enumerate(ps)


def test_enumeration_matches_naive_on_general_subset():
    ps = general_instance(9, 1)
    sub = [0, 2, 3, 5, 6, 8]
    fast = [c.order for c in enumerate_1phc(ps, subset=sub, max_n=9)]
    assert len(fast) == len(set(fast))
    assert set(fast) == naive_enumerate(ps, sub)


@pytest.mark.parametrize("n", sorted(CONVEX_1PHC_COUNTS))
def test_enumeration_counts_frozen(n):
    assert len(enumerated("convex", n)) == CONVEX_1PHC_COUNTS[n]


def test_enumeration_canonical_and_unique():
    cycles = enumerated("convex", 7)
    assert len({c.order for c in cycles}) == len(cycles)
    for c in cycles:
        assert c.order == c.canonical().order
        assert c.order[0] == 0 and c.order[1] < c.order[-1]


def test_enumeration_convex_4():
    # all three Hamiltonian cycles on four convex points are 1-plane
    cycles = enumerated("convex", 4)
    assert len(cycles) == 3


def test_enumeration_excludes_five_point_star():
    star = HamCycle((0, 2, 4, 1, 3)).canonical()
    assert star.order not in {c.order for c in enumerated("convex", 5)}
    assert len(enumerated("convex", 5)) == 6  # of (5-1)!/2 = 12 cycles


def test_enumeration_rotation_invariant_count():
    # relabeling a convex set by rotation cannot change the census
    ps = convex_instance(6)
    base = len(enumerate_1phc(ps))
    rotated = {
        HamCycle(tuple((v + 2) % 6 for v in c.order)).canonical().order
        for c in enumerate_1phc(ps)
    }
    assert len(rotated) == base


def test_enumeration_cap():
    with pytest.raises(TooLarge):
        enumerate_1phc(convex_instance(12))
    with pytest.raises(TooLarge):
        enumerate_1phc(convex_instance(5), max_n=4)
    assert len(enumerate_1phc(convex_instance(9), max_n=9)) == CONVEX_1PHC_COUNTS[9]


def naive_max_packing(cycles):
    """Plain in-order depth-first exhaustive packing search (no bounding):
    the first maximum packing it meets."""
    best = []
    chosen = []

    def rec(idx, used):
        nonlocal best
        if len(chosen) > len(best):
            best = list(chosen)
        for i in range(idx, len(cycles)):
            es = set(cycles[i].edges())
            if es & used:
                continue
            chosen.append(cycles[i])
            rec(i + 1, used | es)
            chosen.pop()

    rec(0, set())
    return best


@pytest.mark.parametrize("config,n,seed", naive_cases((3, 4, 5, 6, 7), (8,), (7, 8)))
def test_branch_and_bound_matches_naive(config, n, seed):
    ps = naive_case(config, n, seed)
    rep = max_packing_exact(ps)
    want = naive_max_packing(list(enumerate_1phc(ps)))
    assert rep.max_packing_size == len(want)
    assert list(rep.witness.cycles) == want


def assert_subset_rejected(subset, message):
    for config in ("convex", "wheel", "general"):
        ps = naive_case(config, 6, 1)
        for search in (enumerate_1phc, max_packing_exact):
            with pytest.raises(ValueError, match=message):
                search(ps, subset=subset)


@pytest.mark.parametrize("subset", [[], [3], [2, 5]])
def test_fewer_than_three_vertices_rejected(subset):
    assert_subset_rejected(subset, "at least 3 vertices")


@pytest.mark.parametrize(
    "subset", [[-1, 0, 1, 2], [0, 1, 2, 9], [0, 1, 2, 6], [0, 1, 1, 2], [5, 3, 5],
               [0.5, 1, 2, 3], [True, 2, 3, 4]]
)
def test_subset_outside_the_point_set_or_repeated_rejected(subset):
    # negative indexing, an IndexError or a TypeError must not stand in for
    # this check, and a bool is not a vertex
    assert_subset_rejected(subset, r"distinct and in 0\.\.5")


def plain_oracle_for(ps):
    """The oracle `oracle_for` gives, wrapped in a plain callable: the
    exact oracle then takes its plain search, which grows every row, on a
    ring as on any other set."""
    ring = oracle_for(ps)
    return lambda e1, e2: ring(e1, e2)


# Search nodes visited on convex 11 and wheel 10, the enumeration nodes of
# the plain search, and the enumeration's count before its reachability
# prunes.  The plain search's 26367 / 16515 were the pinned counts until the
# search on a ring grew only the representative rows of each rotation class.
# Packing nodes are calls of the search by most-constrained edge; the last
# entry is the packing nodes of the index-order branch and bound it replaced
# (`reference_max_packing`), which visited 44 / 76 before its degree bound.
# Before the dead-vertex prune and the first packing bound, the same searches
# visited 144926 / 55681 enumeration and 2895 / 7522 packing nodes.
SEARCH_NODES = {
    "convex": ({"enumeration": 6331, "packing": 351}, 26367, {"enumeration": 42877}, 29),
    "wheel": ({"enumeration": 4092, "packing": 371}, 16515, {"enumeration": 24214}, 16),
}


@pytest.mark.parametrize("config", sorted(SEARCH_NODES))
def test_search_nodes_pinned(config, monkeypatch):
    ps = convex_instance(11) if config == "convex" else wheel_instance(10)
    rep = max_packing_exact(ps, max_n=11)
    pinned, plain, before, previous = SEARCH_NODES[config]
    assert rep.search_nodes == pinned
    assert rep.search_nodes == max_packing_exact(ps, max_n=11).search_nodes
    assert all(rep.search_nodes[k] < before[k] for k in before)
    cycles = enumerate_1phc(ps, max_n=11)
    assert cycles.search_nodes == pinned["enumeration"]
    assert reference_max_packing(cycles.edge_ids, len(ps))[1] == previous
    monkeypatch.setattr(oracle, "oracle_for", plain_oracle_for)
    assert max_packing_exact(ps, max_n=11).search_nodes == {**pinned, "enumeration": plain}


# Search nodes (enumeration, packing), the same before the reachability prunes
# and the index-order packing search's degree bound, the packing nodes of that
# search (`reference_max_packing`), and 1-plane cycle counts on larger convex
# and wheel sets, and on general sets and a general subset, whose crossing
# masks come from the pairwise report instead of the ring sweep.  Before the
# search on a ring grew only the representative rows of each rotation class,
# convex 12, convex 13 and wheel 12 visited 83097, 263687 and 172028
# enumeration nodes; the general rows take the plain search and did not move.
WIDER_SEARCH_NODES = [
    pytest.param("convex", 12, None, None, (18181, 779), (137519, 69), 33, 1860, id="convex-12"),
    pytest.param("convex", 13, None, None, (52713, 2237), (441520, 244), 101, 4395, id="convex-13"),
    pytest.param("wheel", 12, None, None, (35570, 3665), (272114, 1782), 290, 6347, id="wheel-12"),
    pytest.param("general", 9, 1, None, (7917, 56), (10462, 5), 5, 820, id="general-9-1"),
    pytest.param("general", 9, 2, None, (9611, 99), (12151, 21), 21, 1078, id="general-9-2"),
    pytest.param("general", 9, 3, None, (13925, 156), (15580, 73), 73, 1947, id="general-9-3"),
    pytest.param("general", 10, 1, None, (44107, 889), (52769, 2314), 375, 5477, id="general-10-1"),
    pytest.param("general", 10, 2, None, (43944, 617), (58276, 997), 262, 3864, id="general-10-2"),
    pytest.param("general", 10, 3, None, (61884, 3524), (71170, 5482), 900, 7243, id="general-10-3"),
    pytest.param("general", 11, 1, [0, 1, 2, 4, 5, 7, 8, 10], (2254, 33), (2841, 10), 9, 265,
                 id="general-11-1-subset"),
]


@pytest.mark.parametrize("config,n,seed,subset,nodes,before,previous,count", WIDER_SEARCH_NODES)
def test_search_nodes_pinned_wider(config, n, seed, subset, nodes, before, previous, count):
    ps = naive_case(config, n, seed)
    rep = max_packing_exact(ps, subset=subset, max_n=13)
    got = (rep.search_nodes["enumeration"], rep.search_nodes["packing"])
    assert got == nodes
    assert got[0] < before[0]
    assert rep.one_plane_count == count
    edge_ids = enumerate_1phc(ps, subset=subset, max_n=13).edge_ids
    assert reference_max_packing(edge_ids, len(subset or ps))[1] == previous


RING_CASES = [
    pytest.param("convex", n, seed, id=f"convex-{n}-{seed}") for n in range(3, 13) for seed in range(3)
] + [pytest.param("wheel", n, None, id=f"wheel-{n}") for n in range(4, 13, 2)]


@pytest.mark.parametrize("config,n,seed", RING_CASES)
def test_representative_search_matches_plain(config, n, seed, monkeypatch):
    # a convex set, or a wheel stored with its center last, grows only the
    # representative rows of each rotation class and turns out the rest:
    # every row, edge id and packing result must be the plain search's
    ps = wheel_instance(n) if config == "wheel" else generate(Config.CONVEX, n, seed=seed).to_point_set()
    cycles = enumerate_1phc(ps, max_n=12)
    rep = max_packing_exact(ps, max_n=12)
    with monkeypatch.context() as patch:
        patch.setattr(oracle, "oracle_for", plain_oracle_for)
        plain_cycles = enumerate_1phc(ps, max_n=12)
        plain = max_packing_exact(ps, max_n=12)
    assert list(cycles) == list(plain_cycles)
    assert cycles.edge_ids == plain_cycles.edge_ids
    assert rep.one_plane_count == plain.one_plane_count == len(plain_cycles)
    assert rep.max_packing_size == plain.max_packing_size
    assert rep.witness == plain.witness
    assert rep.search_nodes["packing"] == plain.search_nodes["packing"]
    assert rep.search_nodes["enumeration"] == cycles.search_nodes
    assert cycles.search_nodes <= plain_cycles.search_nodes
    if n > 3:  # the plain search was reached: it visits more nodes
        assert cycles.search_nodes < plain_cycles.search_nodes


def wheel_with_center_at(n, c):
    *rim, center = wheel_instance(n).points
    rim.insert(c, center)
    return PointSet(tuple(rim), Config.WHEEL, center_index=c)


# (enumeration, packing) nodes of inputs that keep the plain search: wheels
# whose center is not stored last, and proper subsets of a convex set (a
# convex 10-subset visits the 8445 nodes of the plain search on convex 10).
PLAIN_SEARCH_NODES = [
    pytest.param(wheel_with_center_at(8, 0), None, (1550, 54), id="wheel-8-center-0"),
    pytest.param(wheel_with_center_at(8, 1), None, (1595, 53), id="wheel-8-center-1"),
    pytest.param(wheel_with_center_at(8, 4), None, (1571, 54), id="wheel-8-center-4"),
    pytest.param(wheel_with_center_at(10, 0), None, (15312, 230), id="wheel-10-center-0"),
    pytest.param(wheel_with_center_at(10, 1), None, (16255, 376), id="wheel-10-center-1"),
    pytest.param(wheel_with_center_at(10, 5), None, (16043, 380), id="wheel-10-center-5"),
    pytest.param(convex_instance(12), [0, 1, 2, 4, 5, 6, 8, 9, 10, 11], (8445, 165), id="convex-12-sub-10"),
    pytest.param(convex_instance(12), [1, 2, 3, 5, 6, 7, 9, 10, 11], (2736, 63), id="convex-12-sub-9"),
    pytest.param(convex_instance(11), list(range(1, 11)), (8445, 165), id="convex-11-sub-10"),
]


@pytest.mark.parametrize("ps,subset,nodes", PLAIN_SEARCH_NODES)
def test_plain_search_nodes_kept(ps, subset, nodes):
    rep = max_packing_exact(ps, subset=subset, max_n=12)
    assert (rep.search_nodes["enumeration"], rep.search_nodes["packing"]) == nodes


REFERENCE_CASES = (
    [pytest.param("convex", n, None, id=f"convex-{n}") for n in range(5, 13)]
    + [pytest.param("wheel", n, None, id=f"wheel-{n}") for n in range(6, 13, 2)]
    + [pytest.param("general", n, s, id=f"general-{n}-{s}") for n in range(6, 11) for s in range(1, 6)]
)


@pytest.mark.parametrize("config,n,seed", REFERENCE_CASES)
def test_packing_matches_reference(config, n, seed):
    # the index-order branch and bound finds the first maximum packing in
    # index order by exhaustive search; the new search must give the same
    ps = naive_case(config, n, seed)
    cycles = enumerate_1phc(ps, max_n=12)
    best, _ = reference_max_packing(cycles.edge_ids, n)
    rep = max_packing_exact(ps, max_n=12)
    assert rep.max_packing_size == len(best)
    assert list(rep.witness.cycles) == [cycles[i] for i in best]


def test_only_the_witness_is_built(monkeypatch):
    # the searches keep cycles as rows; a HamCycle is made for the witness only
    ps = wheel_instance(10)
    built = []
    post_init = HamCycle.__post_init__

    def counted(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(HamCycle, "__post_init__", counted)
    rep = max_packing_exact(ps, max_n=10)
    assert rep.max_packing_size == 3
    assert len(built) == 3


SUBSET_SOURCES = [("convex", 10, None), ("wheel", 10, None), ("wheel", 12, None)] + [
    ("general", n, seed) for n in (9, 10) for seed in (1, 2)
]


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(SUBSET_SOURCES), st.data())
def test_subset_searches_match_naive(source, data):
    # random subsets reach the search's prunes in states the fixed sets miss
    ps = naive_case(*source)
    subset = data.draw(st.lists(st.integers(0, len(ps) - 1), min_size=3, max_size=8, unique=True))
    want = sorted(naive_enumerate(ps, subset))
    assert [c.order for c in enumerate_1phc(ps, subset=subset)] == want
    if len(subset) <= 7:
        rep = max_packing_exact(ps, subset=subset)
        best = naive_max_packing([HamCycle(order) for order in want])
        assert rep.max_packing_size == len(best)
        assert list(rep.witness.cycles) == best


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8])
def test_max_packing_convex(n):
    rep = max_packing_exact(convex_instance(n))
    assert rep.max_packing_size == n // 3
    assert rep.total_ham_cycles == math.factorial(n - 1) // 2
    assert rep.one_plane_count == CONVEX_1PHC_COUNTS[n]


def test_max_packing_witness_is_valid():
    rep = max_packing_exact(convex_instance(6))
    assert len(rep.witness) == rep.max_packing_size
    cycles = list(enumerate_1phc(convex_instance(6)))
    catalog = {c.order for c in cycles}
    for a, b in combinations(rep.witness.cycles, 2):
        assert are_edge_disjoint(a, b)
    for c in rep.witness.cycles:
        assert c.canonical().order in catalog


def test_wheel_10_tightness():
    rep = max_packing_exact(wheel_instance(10), max_n=10)
    assert rep.one_plane_count == WHEEL_10_1PHC_COUNT
    assert rep.max_packing_size == 3


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8])
def test_property_sweep_convex(n):
    rep = property_sweep(convex_instance(n))
    assert rep["counterexamples"] == []
    assert rep["cycles_checked"] == CONVEX_1PHC_COUNTS[n]


def test_property_sweep_wheel_10():
    rep = property_sweep(wheel_instance(10), max_n=10)
    assert rep["counterexamples"] == []
    assert rep["cycles_checked"] == WHEEL_10_1PHC_COUNT


def test_property_sweep_rejects_general(monkeypatch):
    from conftest import general_instance

    with pytest.raises(ValueError):
        property_sweep(general_instance(5, 0))


@pytest.mark.parametrize("ps, name, check", [
    (convex_instance(6), "companion-edges", "check_companion_edges"),
    (wheel_instance(8), "wheel-boundary", "check_wheel_boundary"),
], ids=["convex", "wheel"])
def test_property_sweep_reports_a_failing_check(monkeypatch, ps, name, check):
    monkeypatch.setattr(oracle, check, lambda *args: False)
    rep = property_sweep(ps, max_n=10)
    failed = [c for c in rep["counterexamples"] if c["check"] == name]
    assert len(failed) == rep["cycles_checked"] > 0
    assert all(sorted(c["cycle"]) == list(range(len(ps))) for c in failed)


def test_enumeration_on_convex_subset():
    # a subset of a convex set keeps its circular order; the census must
    # match a direct run on the renumbered sub-polygon
    ps6 = convex_instance(6)
    sub = [0, 2, 3, 5]
    got = {c.order for c in enumerate_1phc(ps6, subset=sub)}
    ps4 = PointSet(tuple(ps6.points[i] for i in sub), Config.CONVEX)
    relabel = {k: v for k, v in enumerate(sub)}
    want = {
        tuple(relabel[v] for v in c.order)
        for c in enumerate_1phc(ps4)
    }
    want = {HamCycle(o).canonical().order for o in want}
    assert got == want and len(got) == 3


@pytest.mark.parametrize("n,count", [(6, 30), (8, 175)])
def test_property_sweep_small_wheels(n, count):
    # two radial edges and the per-side boundary structure hold on every
    # enumerated cycle of the smaller wheels as well
    rep = property_sweep(wheel_instance(n), max_n=10)
    assert rep["counterexamples"] == []
    assert rep["cycles_checked"] == count


# sha256 over enumerate_1phc's lists, in order, and the max_packing_exact
# witnesses below; recorded before the search moved to edge bitmasks
ENUMERATION_DIGEST = "06d2008f7d7eda98be2cd5cd6e763831b6cb32eeecb05033a3c702ec8c85e296"


def test_enumeration_unchanged():
    digest = hashlib.sha256()

    def run(tag, ps, subset=None):
        try:
            got = [c.order for c in enumerate_1phc(ps, subset, max_n=10)]
        except ValueError as exc:  # a 2-vertex subset has no cycle to build
            got = type(exc).__name__
        digest.update(repr((tag, got)).encode())

    for n in range(3, 11):
        for seed in (0, 1):
            run(("convex", n, seed), generate(Config.CONVEX, n, seed=seed).to_point_set())
    for n in range(4, 11, 2):
        run(("wheel", n), wheel_instance(n))
    for n in range(3, 9):
        for seed in range(3):
            ps = general_instance(n, seed)
            run(("general", n, seed), ps)
            run(("general-sub", n, seed), ps, list(range(1, n)))
    for config, ps in ((Config.CONVEX, convex_instance(11)), (Config.WHEEL, wheel_instance(10))):
        rep = max_packing_exact(ps, max_n=11)
        digest.update(repr((
            config.value, len(ps), rep.one_plane_count, rep.max_packing_size,
            [c.order for c in rep.witness.cycles],
        )).encode())
    assert digest.hexdigest() == ENUMERATION_DIGEST
