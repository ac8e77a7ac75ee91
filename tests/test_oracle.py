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


# Search nodes visited on convex 11 and wheel 10, and the enumeration's count
# before its reachability prunes.  Packing nodes are calls of the search by
# most-constrained edge; the last entry is the packing nodes of the
# index-order branch and bound it replaced (`reference_max_packing`), which
# visited 44 / 76 before its degree bound.  Before the dead-vertex prune and
# the first packing bound, the same searches visited 144926 / 55681
# enumeration and 2895 / 7522 packing nodes.
SEARCH_NODES = {
    "convex": ({"enumeration": 26367, "packing": 351}, {"enumeration": 42877}, 29),
    "wheel": ({"enumeration": 16515, "packing": 371}, {"enumeration": 24214}, 16),
}


@pytest.mark.parametrize("config", sorted(SEARCH_NODES))
def test_search_nodes_pinned(config):
    ps = convex_instance(11) if config == "convex" else wheel_instance(10)
    rep = max_packing_exact(ps, max_n=11)
    pinned, before, previous = SEARCH_NODES[config]
    assert rep.search_nodes == pinned
    assert rep.search_nodes == max_packing_exact(ps, max_n=11).search_nodes
    assert all(rep.search_nodes[k] < before[k] for k in before)
    cycles = enumerate_1phc(ps, max_n=11)
    assert cycles.search_nodes == pinned["enumeration"]
    assert reference_max_packing(cycles.edge_ids, len(ps))[1] == previous


# Search nodes (enumeration, packing), the same before the reachability prunes
# and the index-order packing search's degree bound, the packing nodes of that
# search (`reference_max_packing`), and 1-plane cycle counts on larger convex
# and wheel sets, and on general sets and a general subset, whose crossing
# masks come from the pairwise report instead of the ring sweep.
WIDER_SEARCH_NODES = [
    pytest.param("convex", 12, None, None, (83097, 779), (137519, 69), 33, 1860, id="convex-12"),
    pytest.param("convex", 13, None, None, (263687, 2237), (441520, 244), 101, 4395, id="convex-13"),
    pytest.param("wheel", 12, None, None, (172028, 3665), (272114, 1782), 290, 6347, id="wheel-12"),
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
    import hcpack.oracle as oracle

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
