import copy
import hashlib
import random
from itertools import combinations, islice, product

import pytest

from hcpack import (
    HamCycle,
    Point,
    march_cycle,
    are_edge_disjoint,
    coordinate_oracle,
    crossing_report,
    edge,
    enumerate_1phc,
    is_one_plane,
    join_cycles,
    pack_general,
    pack_general_detailed,
    uncross,
    verify_hamiltonian,
    verify_packing,
)
from hcpack import bisection, cycles, general, geometry
from hcpack.bisection import Bisection, bisecting_line, bisecting_lines, cut_at
from hcpack.errors import DegenerateInput, HcpackError, MarchFailed, NoJoinFound
from hcpack.general import _JoinScreen, _March, _splice
from hcpack.geometry import PointSet, convex_hull, in_general_position, oracle_for, orientation

from conftest import CrossLedger, degenerate_lists, general_instance, keys_separate


def test_march_cycle_triangle():
    ps = general_instance(3, 0)
    cyc, cut, stones = march_cycle(ps, range(3))
    assert verify_hamiltonian(cyc, 3)
    assert stones == []


def test_march_cycle_reproduces_reference_march(reference_13_points):
    # with the recorded bisecting line the march needs no extensions
    pts = reference_13_points.points
    left = (1, 3, 5, 6, 8, 10, 12)
    right = (0, 2, 4, 7, 9, 11)
    cut = cut_at(pts, range(13), (-19, 63), 1, 7)
    assert cut.left == left and cut.right == right
    cyc, _, stones = march_cycle(reference_13_points, range(13), bisection=cut)
    want = {
        edge(*e)
        for e in [
            (1, 0), (1, 2), (0, 3), (2, 6), (3, 4), (4, 5), (5, 7),
            (6, 11), (7, 8), (8, 9), (11, 12), (9, 10), (10, 12),
        ]
    }
    assert set(cyc.edges()) == want
    assert stones == [(10, 12)]


def test_march_cycle_stone_endpoints_same_side(reference_13_points):
    cut = cut_at(reference_13_points.points, range(13), (-19, 63), 1, 7)
    _, used_cut, stones = march_cycle(reference_13_points, range(13), bisection=cut)
    assert set(stones[0]) <= set(used_cut.left)


@pytest.mark.parametrize("n", [5, 6, 7, 8])
def test_march_cycle_output_is_enumerated(n):
    for seed in range(4):
        ps = general_instance(n, seed)
        cyc, _, _ = march_cycle(ps, range(n))
        catalog = enumerate_1phc(ps)
        assert cyc.canonical() in catalog


@pytest.mark.parametrize("n", [9, 14, 21, 32])
def test_march_cycle_random_instances(n):
    for seed in range(5):
        ps = general_instance(n, 100 + seed)
        cyc, cut, stones = march_cycle(ps, range(n))
        assert verify_hamiltonian(cyc, n)
        assert is_one_plane(cyc, coordinate_oracle(ps.points))
        # odd subsets leave a stone, even ones close cleanly
        assert len(stones) == (1 if n % 2 else 0)


def test_march_cycle_respects_forbidden():
    ps = general_instance(9, 7)
    cyc1, _, _ = march_cycle(ps, range(9))
    cyc2, _, _ = march_cycle(ps, range(9), forbidden=frozenset(cyc1.edges()))
    assert are_edge_disjoint(cyc1, cyc2)


def test_march_cycle_on_subset():
    ps = general_instance(12, 3)
    sub = [1, 2, 4, 6, 7, 9, 11]
    cyc, _, _ = march_cycle(ps, sub)
    assert sorted(cyc.order) == sub
    assert is_one_plane(cyc, coordinate_oracle(ps.points))


def extreme_pairs(points, d, r1, r2):
    """Reference rule: the pairs (v1, v2) of r1 x r2 with every other point
    of r1 | r2 strictly on the side of v1 -> v2 on which v2 lies below v1
    across the line direction d."""
    dx, dy = d
    out = []
    for v1 in r1:
        for v2 in r2:
            p, q = points[v1], points[v2]
            below = (q.x - p.x) * (-dy) - (q.y - p.y) * (-dx)
            bs = (below > 0) - (below < 0)
            if bs and all(
                orientation(p, q, points[i]) == bs for i in r1 | r2 if i not in (v1, v2)
            ):
                out.append((v1, v2))
    return out


@pytest.mark.parametrize("n", range(6, 15))
def test_march_bridge_is_the_one_extreme_pair(n):
    rng = random.Random(n)
    for seed in range(3):
        ps = general_instance(n, 40 + seed)
        for cut in islice(bisecting_lines(ps, range(n)), 3):
            assert keys_separate(ps.points, cut.direction, cut.left, cut.right)
            march = _March(ps.points, cut, frozenset())
            left, right = march.left0, march.right0
            for _ in range(20):
                r1 = set(rng.sample(left, rng.randint(1, len(left))))
                r2 = set(rng.sample(right, rng.randint(1, len(right))))
                want = extreme_pairs(ps.points, cut.direction, r1, r2)
                assert len(want) == 1, (n, seed, r1, r2, want)
                assert march._bridge(r1, r2) == want[0], (n, seed, r1, r2)
            assert march._bridge(set(), set(right)) is None
            assert march._bridge(set(left), set()) is None


def test_march_cycle_rejects_a_line_that_does_not_separate():
    ps = general_instance(10, 4)
    bi = bisecting_line(ps, range(10))
    # swap one point across the cut: its direction no longer separates the sides
    left = bi.left[1:] + bi.right[:1]
    right = bi.right[1:] + bi.left[:1]
    assert keys_separate(ps.points, bi.direction, bi.left, bi.right)
    assert not keys_separate(ps.points, bi.direction, left, right)
    with pytest.raises(ValueError):
        march_cycle(ps, range(10), bisection=Bisection(bi.direction, left, right))


def test_march_cycle_refuses_two_points_and_a_forbidden_triangle():
    ps = general_instance(6, 1)
    with pytest.raises(ValueError, match="need at least 3 points"):
        march_cycle(ps, [0, 1])
    with pytest.raises(MarchFailed, match="triangle edge forbidden"):
        march_cycle(ps, [0, 1, 2], forbidden=frozenset({(0, 2)}))


def test_march_cycle_stops_at_the_node_cap(monkeypatch):
    monkeypatch.setattr(general, "NODE_CAP", 1)
    with pytest.raises(MarchFailed, match="node cap 1 hit"):
        march_cycle(general_instance(12, 1), range(12))


def test_march_cycle_on_a_five_one_split_fails():
    ps = general_instance(6, 1)
    cut = cut_at(ps, range(6), (1, 0), 1, 5)
    assert (len(cut.left), len(cut.right)) == (5, 1)
    with pytest.raises(MarchFailed, match="march exhausted"):
        march_cycle(ps, range(6), bisection=cut)


def test_march_cycle_takes_the_larger_side_as_left():
    ps = general_instance(7, 1)
    bi = bisecting_line(ps, range(7))
    assert len(bi.left) > len(bi.right)
    swapped = Bisection(bi.direction, bi.right, bi.left)
    cyc, _, stones = march_cycle(ps, range(7), bisection=bi)
    assert march_cycle(ps, range(7), bisection=swapped)[::2] == (cyc, stones)


# sha256 over march_cycle's cycle and stones for n = 48, 64, 96, 128 and
# seeds 1-3, recorded before the march's pair search became a hull bridge
LARGE_MARCH_DIGEST = "9b920f61e0236ea2f4b52ddda5bfe46a26f94baa3d079a7c3922c76d6ee1d9dc"


def test_large_march_unchanged():
    digest = hashlib.sha256()
    for n in (48, 64, 96, 128):
        for seed in (1, 2, 3):
            ps = general_instance(n, seed)
            cyc, _, stones = march_cycle(ps, range(n))
            digest.update(repr((n, seed, cyc.order, stones)).encode())
    assert digest.hexdigest() == LARGE_MARCH_DIGEST


def hull_bridge(points, bs, r1, r2):
    """Reference bridge: the edge of a fresh `convex_hull` of r1 | r2 running
    ccw from r1 to r2 (bs > 0) or from r2 to r1 (bs < 0), as (v1, v2)."""
    if not r1 or not r2:
        return None
    if len(r1) == len(r2) == 1:
        return next(iter(r1)), next(iter(r2))
    idx = sorted(r1 | r2)
    hull = [idx[h] for h in convex_hull([points[i] for i in idx])]
    src, dst = (r1, r2) if bs > 0 else (r2, r1)
    a, b = next((a, b) for a, b in zip(hull, hull[1:] + hull[:1]) if a in src and b in dst)
    return (a, b) if bs > 0 else (b, a)


def test_march_bridge_matches_a_fresh_hull_at_every_node(monkeypatch):
    bridge = _March._bridge
    seen, points = [], []

    def checked(self, r1, r2):
        got = bridge(self, r1, r2)
        assert got == hull_bridge(points[0], self.bs, r1, r2), (sorted(r1), sorted(r2))
        seen.append(self.bs)
        return got

    monkeypatch.setattr(_March, "_bridge", checked)
    for n in (16, 17, 24, 32, 48, 64, 96, 128):
        for seed in (1, 2, 3):
            ps = general_instance(n, seed)
            points[:] = [ps.points]
            march_cycle(ps, range(n))
            # the same sides under the reversed direction: the other sign of bs
            bi = bisecting_line(ps, range(n))
            dx, dy = bi.direction
            flipped = Bisection((-dx, -dy), bi.left, bi.right)
            assert keys_separate(ps.points, flipped.direction, bi.right, bi.left)
            try:
                march_cycle(ps, range(n), bisection=flipped)
            except MarchFailed:
                pass
    assert set(seen) == {1, -1} and len(seen) > 1000


def march_outcome(points):
    """march_cycle's cycle and stones on all of `points`, or the name of the
    exception it raises."""
    try:
        cyc, _, stones = march_cycle(points, range(len(points)))
    except Exception as exc:
        return type(exc).__name__
    return cyc.order, stones


def test_general_packer_refuses_points_not_in_general_position():
    """The march, the join and the pack each build a bare point list into a
    PointSet, so a duplicate or a collinear triple is DegenerateInput before
    any cycle is built."""
    refused = 0
    for _seed, points in degenerate_lists():
        if in_general_position(points):
            continue
        n = len(points)
        with pytest.raises(DegenerateInput):
            march_cycle(points, range(n))
        # five points hold no two disjoint cycles, but the door refuses the
        # points before it reads the cycles
        with pytest.raises(DegenerateInput):
            join_cycles(HamCycle(range(3)), HamCycle(range(3, max(n, 6))), frozenset(), points)
        with pytest.raises(DegenerateInput):
            pack_general_detailed(points)
        refused += 1
    assert refused == 284
    # 1, 2 and 3 on one line; two collinear triangle sides that overlap
    for pts in (
        [Point(5, 5), Point(3, 1), Point(1, 1), Point(5, 1), Point(0, 2), Point(3, 2)],
        [Point(0, 0), Point(10, 0), Point(5, 8), Point(4, 0), Point(14, 0), Point(9, -6)],
    ):
        with pytest.raises(DegenerateInput):
            join_cycles(HamCycle((0, 1, 2)), HamCycle((3, 4, 5)), frozenset(), pts)


# sha256 over march_outcome of each degenerate list in general position,
# recorded before the march and join dropped their zero-determinant paths
GENERAL_POSITION_LISTS_DIGEST = "505ba4a3d2d91acc3fc2812ccbed503907e41946e2c4ad48946babc53cb887c4"


def test_march_on_general_position_lists_unchanged():
    digest = hashlib.sha256()
    seeds = []
    for seed, points in degenerate_lists():
        if in_general_position(points):
            out = march_outcome(points)
            assert not isinstance(out, str), (seed, out)
            seeds.append(seed)
            digest.update(repr((seed, out)).encode())
    assert len(seeds) == 16
    assert digest.hexdigest() == GENERAL_POSITION_LISTS_DIGEST


def test_pack_validates_its_points_once(monkeypatch):
    """A PointSet is taken as it is and a bare point tuple is validated once,
    at the door: no march, join or cut inside the pack builds another."""
    ps = general_instance(33, 1)
    built = []
    post_init = PointSet.__post_init__

    def counted(self):
        built.append(len(self.points))
        post_init(self)

    monkeypatch.setattr(PointSet, "__post_init__", counted)
    packed = pack_general_detailed(ps).packing
    assert built == []
    bare = pack_general_detailed(ps.points).packing
    assert built == [33]
    assert [c.order for c in bare.cycles] == [c.order for c in packed.cycles]


def test_march_on_degenerate_lists_raises_only_package_errors():
    """Every degenerate list ends in a cycle (in general position) or a
    package error, never a stray exception."""
    stray = []
    for seed, points in degenerate_lists():
        try:
            march_cycle(points, range(len(points)))
        except HcpackError:
            pass
        except Exception as exc:
            stray.append((seed, type(exc).__name__))
    assert stray == []


def _assert_march_state(march, ref):
    """The march's lanes hold CrossLedger's edges, each crossing exactly the
    held edges CrossLedger lists for it, and its crossed mask marks exactly
    the held edges CrossLedger lists as crossed."""
    lanes = march.lanes
    assert set(lanes.lane) == set(ref.crossed)
    for e, hits in ref.crossed.items():
        assert {lanes.edges[f] for f in lanes.indices(lanes.crossing(*e))} == set(hits), e
    assert march.crossed == sum(lanes.bit(lanes.lane[e]) for e, hits in ref.crossed.items() if hits)


def test_march_ledger_agrees_with_cross_ledger(monkeypatch):
    """Every edge the march tries gets CrossLedger's verdict (a forbidden
    edge aside), and every add and undo leaves the march's lanes in
    CrossLedger's state."""
    verdicts, refs = set(), {}
    try_add, undo = _March._try_add, _March._undo

    def checked_add(march, u, w):
        if march not in refs:
            points = [Point(x, y) for x, y in zip(march.xs, march.ys)]
            refs[march] = CrossLedger(coordinate_oracle(points))
        e = edge(u, w)
        want = e not in march.forbidden and refs[march].add(e)
        assert try_add(march, u, w) == want, e
        _assert_march_state(march, refs[march])
        verdicts.add(want)
        return want

    def checked_undo(march, u, w):
        undo(march, u, w)
        refs[march].remove(edge(u, w))
        _assert_march_state(march, refs[march])
        verdicts.add("remove")

    monkeypatch.setattr(_March, "_try_add", checked_add)
    monkeypatch.setattr(_March, "_undo", checked_undo)
    for n in (16, 17, 24, 32, 48, 64):
        for seed in (1, 2, 3):
            march_cycle(general_instance(n, seed), range(n))
    assert verdicts == {True, False, "remove"}


def test_flat_ledger_refuses_an_edge_it_holds():
    """Adding a held edge again is refused, as CrossLedger refuses it, and
    leaves every packed line, lane and crossed mask as it was."""
    ps = general_instance(12, 1)
    march = _March(ps.points, bisecting_line(ps, range(12)), frozenset())
    ref = CrossLedger(coordinate_oracle(ps.points))
    for e in combinations(range(12), 2):
        assert march._try_add(*e) == ref.add(e)
    _assert_march_state(march, ref)
    assert march.crossed
    # the held edges' order too: the finished cycle is walked in it
    before = copy.deepcopy((vars(march.lanes), list(march.lanes.lane), march.crossed))
    for e in list(ref.crossed):
        assert not ref.add(e)
        assert not march._try_add(*e)
    assert (vars(march.lanes), list(march.lanes.lane), march.crossed) == before


def test_fold_raises_once_every_seed_is_stuck(monkeypatch):
    tried = []

    def no_join(c1, c2, forbidden, ps):
        tried.append((c1.order, c2.order))
        raise NoJoinFound("no exchange")

    monkeypatch.setattr(general, "join_cycles", no_join)
    parts = [HamCycle((0, 1, 2)), HamCycle((3, 4, 5)), HamCycle((6, 7, 8))]
    with pytest.raises(NoJoinFound, match="fold stuck: no exchange"):
        general._fold(parts, set(), general_instance(9, 1))
    # each seed tries the two other cycles once, then the next seed starts
    assert tried == [(a.order, b.order) for a in parts for b in parts if a is not b]


@pytest.mark.parametrize("near, far", [((0, 3), (1, 2)), ((1, 2), (0, 3))])
def test_ccw_part_order_breaks_a_direction_tie_by_smallest_label(near, far):
    """Two parts whose centroids lie on one ray from the global centroid
    come in the order of their smallest labels, whichever is nearer."""
    xy = {near[0]: (9, 1), near[1]: (11, -1), far[0]: (19, 2), far[1]: (21, -2),
          4: (-31, 1), 5: (-29, -1)}
    points = [Point(*xy[i]) for i in range(6)]
    assert in_general_position(points)
    order = general._ccw_part_order([(4, 5), far, near], points)
    assert order == [(0, 3), (1, 2), (4, 5)]


# perfbench/tracer.py patches these names on hcpack.general, where the
# packer looks them up; each must stay there as its home module's object
TRACED_ON_GENERAL = {
    "coordinate_oracle": geometry,
    "segments_properly_cross": geometry,
    "is_one_plane": cycles,
    "crossing_report": cycles,
    "march_cycle": general,
    "join_cycles": general,
    "uncross": general,
    "bisecting_lines": bisection,
    "ham_sandwich_cuts": bisection,
    "separating_subset_line": bisection,
    "pack_general_detailed": general,
}


@pytest.mark.parametrize("name", sorted(TRACED_ON_GENERAL))
def test_traced_names_stay_on_general(name):
    home = TRACED_ON_GENERAL[name]
    assert name in vars(general)
    assert vars(general)[name] is vars(home)[name]
    assert vars(home)[name].__module__ == home.__name__


# sha256 over pack_general_detailed's cycles and join moves for n = 48
# (seeds 1-5) and n = 64 (seed 1), recorded before the join screen moved
# to side masks; corpus B stops at n = 33.  It was
# eedae45e7034ab7aec981514e7d37fb8e93c382aecb0ebfa2a9e69d9e8aa8d55 while a
# part whose level cut admitted no march was marched again on a cut of its
# own; without that retry only (48, 5) packs differently, still 4 cycles.
LARGE_PACK_DIGEST = "cfc21d808e8b6a617470fb9b9c723ab8e96c8c98c5e650d3dde1e76c1da8d79f"


def test_large_pack_unchanged():
    digest = hashlib.sha256()
    for n, seed in [(48, 1), (48, 2), (48, 3), (48, 4), (48, 5), (64, 1)]:
        result = pack_general_detailed(general_instance(n, seed))
        digest.update(repr((
            n,
            seed,
            [c.order for c in result.packing.cycles],
            [[(mv.removed, mv.added, mv.created_uncrossings) for mv in moves]
             for moves in result.join_log],
        )).encode())
    assert digest.hexdigest() == LARGE_PACK_DIGEST


# sha256 over the level search's full record for n = 16, 17, 32, 33, 48
# (seeds 1-5), and over every PackingIncomplete under small LEVEL_ATTEMPTS,
# recorded before the search moved to one path of levels.  It was
# 7aacec75e26a0808831552ba2da36c238633bf0a2cba3aa85f09d4bd4ab3d2c2 while a
# part whose level cut admitted no march was marched again on a cut of its
# own.  Without that retry (17, 1), (33, 2), (33, 3), (33, 5) and (48, 5)
# pack differently with the same cycle counts; (17, 2) and (17, 5) keep
# their packing, but a part the retry recorded as "unconstrained" keeps its
# "case1" cut; the call counts of those seven and (17, 4) change; and 16 of
# the 80 runs under small LEVEL_ATTEMPTS end differently.
# It was then c839c7ad5d1aa89b2d0e8e9db7d695840d944d578c9949370841a4b9d1728ab4
# while a march's stone steered the next level's cuts and each level
# recorded its stones.  With every part pair on its plain ham-sandwich cut
# and no stones in the record, all ten n = 17 and n = 33 runs pack
# differently with the same cycle counts, the n = 16, 32 and 48 runs keep
# their packing, parts and cut cases, the _run_level calls over the 25
# runs fall from 192 to 138, and 25 of the 100 runs under small
# LEVEL_ATTEMPTS end differently.
# It was then ae0d74e2d43778b2aa57249d61d03e6dba31d7f298ce6a5258000415d3aa5e94
# while the first level ran in a loop of its own and each level wrote its
# cut cases onto the previous level's record.  Now `levels[i]` names the
# parts cycle i marched on (the first level's single part, "unconstrained",
# and no empty last record), the first level's attempts are _run_level
# calls too, and a node stops after an attempt in which no part had a cut.
# Every packing and join move is unchanged, and so are the parts and cut
# cases, one level later; the _run_level calls over the 25 runs go from
# 138 to 159 (25 first-level calls added, 4 repeats skipped at (17, 1) and
# (33, 2)); all 100 runs under small LEVEL_ATTEMPTS end as before.
LEVEL_SEARCH_DIGEST = "ac7accf818490fe8d895196561a550ba92a919e484be0418fccb2eef1a6dc49f"


def test_level_search_unchanged(monkeypatch):
    from hcpack.errors import PackingIncomplete

    calls = [0]
    run_level = general._run_level

    def counted(*args):
        calls[0] += 1
        return run_level(*args)

    monkeypatch.setattr(general, "_run_level", counted)
    digest = hashlib.sha256()
    for n, seed in product([16, 17, 32, 33, 48], range(1, 6)):
        calls[0] = 0
        result = pack_general_detailed(general_instance(n, seed))
        digest.update(repr((
            n,
            seed,
            [c.order for c in result.packing.cycles],
            [(lv.parts, sorted(lv.cut_case.items())) for lv in result.levels],
            sorted(result.packing.edge_union()),
            [[(mv.removed, mv.added, mv.created_uncrossings) for mv in moves]
             for moves in result.join_log],
            calls[0],
        )).encode())
    for attempts, n, seed in product([0, 1, 2, 3, 5], [16, 17, 32, 33], range(1, 6)):
        monkeypatch.setattr(general, "LEVEL_ATTEMPTS", attempts)
        try:
            pack_general_detailed(general_instance(n, seed))
            out = None
        except PackingIncomplete as exc:
            out = (str(exc), exc.level, [c.order for c in exc.cycles])
        digest.update(repr((attempts, n, seed, out)).encode())
    assert digest.hexdigest() == LEVEL_SEARCH_DIGEST


def test_a_level_attempt_marches_each_part_once(monkeypatch):
    """A part marches on the cut its level gives it: a cut that admits no
    march fails the attempt instead of marching the part again."""
    march, run_level = general.march_cycle, general._run_level
    marched, attempts = [None], []

    def recorded_march(ps, subset, *args, **kwargs):
        if marched[0] is not None:
            marched[0].append(tuple(subset))
        return march(ps, subset, *args, **kwargs)

    def recorded_level(*args):
        marched[0] = []
        try:
            return run_level(*args)
        finally:
            attempts.append(marched[0])
            marched[0] = None

    monkeypatch.setattr(general, "march_cycle", recorded_march)
    monkeypatch.setattr(general, "_run_level", recorded_level)
    for n, seed in product([16, 17, 32, 33], range(1, 6)):
        pack_general_detailed(general_instance(n, seed))
    assert len(attempts) > 20
    assert [parts for parts in attempts if len(set(parts)) < len(parts)] == []


def test_each_part_pair_marches_on_the_halves_of_its_ham_sandwich_cut(monkeypatch):
    """Wherever parts 2t and 2t + 1 have a variant-th ham-sandwich cut,
    both march on its halves, in the stream's own order of the pair."""
    march, level_cuts, run_level = general.march_cycle, general._level_cuts, general._run_level
    marched, variants, attempts = [None], [], []

    def recorded_march(ps, subset, bisection=None, **kwargs):
        if marched[0] is not None:
            marched[0].append(bisection)
        return march(ps, subset, bisection=bisection, **kwargs)

    def recorded_cuts(ps, parts, variant):
        variants.append(variant)
        return level_cuts(ps, parts, variant)

    def recorded_level(ps, parts, *rest):
        marched[0] = []
        try:
            return run_level(ps, parts, *rest)
        finally:
            attempts.append((ps, parts, variants[-1], marched[0]))
            marched[0] = None

    monkeypatch.setattr(general, "march_cycle", recorded_march)
    monkeypatch.setattr(general, "_level_cuts", recorded_cuts)
    monkeypatch.setattr(general, "_run_level", recorded_level)
    for n, seed in product([17, 33], range(1, 6)):
        pack_general_detailed(general_instance(n, seed))
    checked = 0
    for ps, parts, variant, cuts in attempts:
        for t in range(0, len(parts) - 1, 2):
            hs = general._nth(bisection.ham_sandwich_cuts(ps, parts[t], parts[t + 1]), variant)
            if hs is None:
                continue
            e, (l1, r1, l2, r2) = hs
            want = [Bisection(e, l1, r1), Bisection(e, l2, r2)]
            got = cuts[t : t + 2]  # a failed march ends the attempt's record
            assert got == want[: len(got)]
            checked += len(got)
    assert checked > 100


def test_no_level_attempt_repeats(monkeypatch):
    """A node stops trying cut variants after an attempt in which no part
    had a cut, since every later variant would repeat that attempt: no pack
    marches the same parts on the same cuts with the same edges used twice."""
    run_level = general._run_level
    keys = []

    def keyed(ps, parts, cuts, used):
        keys.append((tuple(parts), frozenset(used), tuple(cuts)))
        return run_level(ps, parts, cuts, used)

    monkeypatch.setattr(general, "_run_level", keyed)
    repeats = attempts = 0
    for n, seed in product([16, 17, 32, 33], range(1, 41)):
        keys.clear()
        pack_general_detailed(general_instance(n, seed))
        attempts += len(keys)
        repeats += len(keys) - len(set(keys))
    assert attempts > 900
    assert repeats == 0


@pytest.mark.parametrize("n,seed", [(65, 23), (67, 40)])
def test_packs_that_repeated_level_attempts_left_short(n, seed):
    """Both stopped at 4 of 5 cycles after LEVEL_ATTEMPTS attempts while a
    node repeated its all-free attempt for every later variant."""
    ps = general_instance(n, seed)
    cycles = pack_general(ps).cycles
    assert len(cycles) == n.bit_length() - 2 == 5
    assert verify_packing(cycles, n, oracle_for(ps))["ok"]


def test_uncross_quadrilateral():
    # the crossed quadrilateral has a unique plane reconnection
    pts = [Point(0, 0), Point(10, 1), Point(11, 10), Point(1, 11)]
    orc = coordinate_oracle(pts)
    crossed = HamCycle((0, 2, 1, 3))
    fixed = uncross(crossed, ((0, 2), (1, 3)), orc)
    assert set(fixed.edges()) == {(0, 1), (1, 2), (2, 3), (0, 3)}


def test_uncross_requires_crossing_pair():
    pts = [Point(0, 0), Point(10, 1), Point(11, 10), Point(1, 11)]
    orc = coordinate_oracle(pts)
    with pytest.raises(ValueError):
        uncross(HamCycle((0, 1, 2, 3)), ((0, 1), (2, 3)), orc)


def test_uncross_removes_crossing_from_one_plane_cycle():
    ps = general_instance(10, 13)
    orc = coordinate_oracle(ps.points)
    cyc, _, _ = march_cycle(ps, range(10))
    crossing = [
        (a, b)
        for i, a in enumerate(cyc.edges())
        for b in cyc.edges()[i + 1 :]
        if not set(a) & set(b) and orc(a, b)
    ]
    if not crossing:
        pytest.skip("march produced a plane cycle")
    fixed = uncross(cyc, crossing[0], orc)
    assert verify_hamiltonian(fixed, 10)
    assert is_one_plane(fixed, orc)
    removed = set(crossing[0])
    assert not (removed & set(fixed.edges()))


def _single_cycle_reconnection(cyc, e1, e2):
    """The edge set left by swapping e1, e2 for the two edges that keep
    one Hamiltonian cycle (the other reconnection splits it in two)."""
    rest = set(cyc.edges()) - {e1, e2}
    (a, b), (c, d) = e1, e2
    for added in ((edge(a, c), edge(b, d)), (edge(a, d), edge(b, c))):
        # every vertex keeps degree two, so one cycle means connected
        adj = {v: set() for v in cyc.order}
        for u, w in list(rest) + list(added):
            adj[u].add(w)
            adj[w].add(u)
        seen, todo = {a}, [a]
        while todo:
            for w in adj[todo.pop()] - seen:
                seen.add(w)
                todo.append(w)
        if len(seen) == len(cyc):
            return rest | set(added)
    raise AssertionError("neither reconnection keeps one cycle")


@pytest.mark.parametrize("n", [6, 7, 8, 9])
def test_uncross_property_on_random_cycles(n):
    """uncross returns the single-cycle reconnection of every crossing pair
    of cycle edges, whether that is 1-plane or not (both occur); a crossing
    pair that is not two cycle edges is a ValueError."""
    rng = random.Random(n)
    all_edges = list(combinations(range(n), 2))
    planes = set()
    for seed in range(3):
        ps = general_instance(n, seed)
        orc = coordinate_oracle(ps.points)
        for _ in range(12):
            order = list(range(n))
            rng.shuffle(order)
            cyc = HamCycle(tuple(order))
            es = set(cyc.edges())
            for e1, e2 in combinations(sorted(es), 2):
                if set(e1) & set(e2) or not orc(e1, e2):
                    continue
                want = _single_cycle_reconnection(cyc, e1, e2)
                planes.add(crossing_report(sorted(want), orc).max_count <= 1)
                for pair in ((e1, e2), (e2, e1)):
                    got = uncross(cyc, pair, orc)
                    assert verify_hamiltonian(got, n)
                    assert set(got.edges()) == want
            for e1, e2 in combinations(all_edges, 2):
                if (e1 in es and e2 in es) or set(e1) & set(e2) or not orc(e1, e2):
                    continue
                with pytest.raises(ValueError):
                    uncross(cyc, (e1, e2), orc)
    assert planes == {True, False}


def test_join_two_triangles():
    pts = [Point(0, 0), Point(10, 1), Point(5, 9),
           Point(100, 0), Point(110, 2), Point(104, 10)]
    orc = coordinate_oracle(pts)
    c1, c2 = HamCycle((0, 1, 2)), HamCycle((3, 4, 5))
    merged, move = join_cycles(c1, c2, frozenset(), pts)
    assert verify_hamiltonian(merged, 6)
    assert is_one_plane(merged, orc)
    assert len(move.added) == 2 and len(move.removed) == 2
    assert move.created_uncrossings == ()
    # edge bookkeeping: merged = (E1 | E2 | added) minus removed
    want = (set(c1.edges()) | set(c2.edges()) | set(move.added)) - set(move.removed)
    assert set(merged.edges()) == want


def test_join_respects_forbidden():
    pts = [Point(0, 0), Point(10, 1), Point(5, 9),
           Point(100, 0), Point(110, 2), Point(104, 10)]
    orc = coordinate_oracle(pts)
    c1, c2 = HamCycle((0, 1, 2)), HamCycle((3, 4, 5))
    base, move = join_cycles(c1, c2, frozenset(), pts)
    merged, move2 = join_cycles(c1, c2, frozenset(move.added), pts)
    assert not (set(move2.added) & set(move.added))
    assert is_one_plane(merged, orc)


def test_join_uses_created_edges_when_plain_join_blocked(monkeypatch):
    """General n = 8 (seed 37) and n = 64 (seed 1) each make one join that
    uncrosses a pair first; its record says which pair went and which two
    edges replaced it, and the merged cycle is exactly the bookkeeping."""
    joins = []
    join = general.join_cycles

    def recorded(c1, c2, forbidden, ps):
        merged, mv = join(c1, c2, forbidden, ps)
        joins.append((c1, c2, forbidden, merged, mv))
        return merged, mv

    monkeypatch.setattr(general, "join_cycles", recorded)
    for n, seed in [(8, 37), (64, 1)]:
        ps = general_instance(n, seed)
        orc = coordinate_oracle(ps.points)
        joins.clear()
        res = pack_general_detailed(ps)
        mv, = (mv for moves in res.join_log for mv in moves if mv.created_uncrossings)
        (c1, c2, forbidden, merged, _), = (j for j in joins if j[4] is mv)
        (pair, created), = mv.created_uncrossings
        base = set(c1.edges()) | set(c2.edges())
        assert set(pair) <= base and orc(*pair)
        assert len(created) == 2 and not (set(created) & (base | set(forbidden)))
        assert mv.removed_edges() == list(mv.removed) + list(pair)
        assert set(merged.edges()) == (base | set(created) | set(mv.added)) - set(mv.removed_edges())
        assert verify_hamiltonian(merged, len(c1) + len(c2))
        assert is_one_plane(merged, orc)


@pytest.mark.parametrize("n,seed", [(8, 0), (16, 1), (17, 2), (32, 3), (33, 4)])
def test_pack_general_counts_and_disjointness(n, seed):
    ps = general_instance(n, 7777 * seed + n)
    k = n.bit_length() - 1
    packing = pack_general(ps)
    assert len(packing) >= k - 1
    orc = coordinate_oracle(ps.points)
    seen = set()
    for c in packing.cycles:
        assert verify_hamiltonian(c, n)
        assert is_one_plane(c, orc)
        es = set(c.edges())
        assert not (es & seen)
        seen |= es


def test_pack_general_single_cycle_for_n4():
    ps = general_instance(4, 5)
    packing = pack_general(ps)
    assert len(packing) == 1


def test_pack_general_deterministic():
    ps = general_instance(16, 9)
    p1 = pack_general(ps)
    p2 = pack_general(ps)
    assert [c.order for c in p1.cycles] == [c.order for c in p2.cycles]


def test_partition_tree_structure():
    ps = general_instance(17, 6)
    res = pack_general_detailed(ps)
    n = 17
    assert res.levels[0].parts == [tuple(range(n))]
    for li, level in enumerate(res.levels):
        assert len(level.parts) == 2 ** li
        flat = sorted(v for p in level.parts for v in p)
        assert flat == list(range(n))


@pytest.mark.parametrize("n,seed", [(17, 6), (16, 0), (32, 3), (33, 1)])
def test_partition_tree_cut_cases_name_their_own_parts(n, seed):
    levels = pack_general_detailed(general_instance(n, seed)).levels
    # the first level's single part marched on a bisecting line of its own
    assert levels[0].cut_case == {0: "unconstrained"}
    # every level was cut and marched on, part by part
    for level in levels:
        assert set(level.cut_case) == set(range(len(level.parts)))
        assert set(level.cut_case.values()) <= {"ham-sandwich", "unconstrained"}


def test_march_cycle_raises_when_everything_forbidden():
    from itertools import combinations

    from hcpack.errors import MarchFailed

    ps = general_instance(6, 2)
    everything = frozenset(
        (a, b) for a, b in combinations(range(6), 2)
    )
    with pytest.raises(MarchFailed):
        march_cycle(ps, range(6), forbidden=everything)


@pytest.mark.parametrize("bad", [(5, 0), (3, 3), (0, 5, 7), 5])
def test_march_cycle_refuses_a_forbidden_entry_that_is_not_an_edge(bad):
    """The march tests membership of edges (a, b), a < b, only: (5, 0)
    would forbid nothing, and the plain march on general n = 12, seed 1,
    holds (0, 5)."""
    ps = general_instance(12, 1)
    assert (0, 5) in march_cycle(ps, range(12))[0].edges()
    with pytest.raises(ValueError, match="is not an edge"):
        march_cycle(ps, range(12), forbidden=frozenset({bad}))


def test_join_cycles_refuses_a_forbidden_entry_that_is_not_an_edge(monkeypatch):
    """A join packing general n = 16, seed 1, adds (5, 12); with (12, 5)
    added to its forbidden edges it is refused, not made again."""
    joins = []
    join = general.join_cycles

    def recorded(c1, c2, forbidden, ps):
        merged, mv = join(c1, c2, forbidden, ps)
        joins.append((c1, c2, forbidden, mv))
        return merged, mv

    monkeypatch.setattr(general, "join_cycles", recorded)
    ps = general_instance(16, 1)
    pack_general_detailed(ps)
    c1, c2, used, _ = next(j for j in joins if (5, 12) in j[3].added)
    for bad in [(12, 5), (5, 5), (5, 12, 0)]:
        with pytest.raises(ValueError, match="is not an edge"):
            join(c1, c2, set(used) | {bad}, ps)


def test_join_cycles_raises_when_links_forbidden():
    from hcpack.errors import NoJoinFound

    pts = [Point(0, 0), Point(10, 1), Point(5, 9),
           Point(100, 0), Point(110, 2), Point(104, 10)]
    cross_links = frozenset(
        tuple(sorted(e)) for e in product(range(3), range(3, 6))
    )
    with pytest.raises(NoJoinFound):
        join_cycles(HamCycle((0, 1, 2)), HamCycle((3, 4, 5)), cross_links, pts)


def _merged(c1, c2, r1, r2, a1):
    """The cycle spliced from c1 and c2 by removing r1 and r2 and adding
    a1 and its partner."""
    succ = dict(zip(c1.order, c1.order[1:] + c1.order[:1]))
    succ.update(zip(c2.order, c2.order[1:] + c2.order[:1]))
    u1, u2 = r1 if succ[r1[0]] == r1[1] else r1[::-1]
    v1, v2 = r2 if succ[r2[0]] == r2[1] else r2[::-1]
    return _splice(c1, c2, u2, v2, 0 if a1 in (edge(u1, v1), edge(u2, v2)) else 1)


def _exchanges(c1, c2):
    """Every exchange of c1 and c2, as (r1, r2, a1, a2)."""
    for r1, r2 in product(c1.edges(), c2.edges()):
        for v1, v2 in (r2, r2[::-1]):
            yield r1, r2, edge(r1[0], v1), edge(r1[1], v2)


def _assert_screen_exact(c1, c2, pts, oracle):
    """candidate_ok agrees with the splice's own 1-plane check on every
    exchange; returns the screen."""
    screen = _JoinScreen(c1, c2, [p.x for p in pts], [p.y for p in pts], oracle)
    for r1, r2, a1, a2 in _exchanges(c1, c2):
        merged = _merged(c1, c2, r1, r2, a1)
        want = (set(c1.edges()) | set(c2.edges()) | {a1, a2}) - {r1, r2}
        assert set(merged.edges()) == want
        assert screen.candidate_ok(r1, r2, a1, a2) == is_one_plane(merged, oracle), (r1, r2, a1, a2)
    return screen


def _record_screens(monkeypatch, log):
    """Append to `log` every join screen the packer makes, built fresh
    (`fresh` True) or derived by `uncrossed` (`fresh` False), in order;
    each screen lists in `asked` the candidates it was asked about, with
    its verdicts."""

    class Recording(_JoinScreen):
        def __init__(self, *args):
            super().__init__(*args)
            self.fresh, self.asked = True, []
            log.append(self)

        def uncrossed(self, *args):
            twin = super().uncrossed(*args)
            twin.fresh, twin.asked = False, []
            log.append(twin)
            return twin

        def candidate_ok(self, *cand):
            ok = super().candidate_ok(*cand)
            self.asked.append((cand, ok))
            return ok

    monkeypatch.setattr(general, "_JoinScreen", Recording)


def _edges_in(screen, mask):
    lanes = screen.lanes
    return {lanes.edges[f] for f in lanes.indices(mask)}


@pytest.mark.parametrize("n", [16, 17, 32, 33])
def test_join_screen_agrees_with_splice_check_while_packing(n, monkeypatch):
    screens = []
    _record_screens(monkeypatch, screens)
    outcomes = set()
    for seed in (1, 2, 3):
        ps = general_instance(n, seed)
        orc = coordinate_oracle(ps.points)
        screens.clear()
        pack_general_detailed(ps)
        assert screens
        for screen in screens:
            for (r1, r2, a1, a2), ok in screen.asked:
                assert ok == is_one_plane(_merged(*screen.cycles, r1, r2, a1), orc)
                outcomes.add(ok)
    assert outcomes == {True, False}


@pytest.mark.parametrize("n", [16, 17, 32, 33])
def test_join_splices_an_accepted_candidate_without_a_second_check(n, monkeypatch):
    """The join screens are exact (see the tests around this one), so a
    general pack asks no whole-cycle check: neither `is_one_plane` nor
    `crossing_report`, for a splice or for an uncrossed cycle."""
    calls = []

    def counted(name):
        fn = getattr(general, name)

        def wrapper(*args):
            calls.append(name)
            return fn(*args)

        monkeypatch.setattr(general, name, wrapper)

    counted("is_one_plane")
    counted("crossing_report")
    for seed in (1, 2, 3):
        pack_general_detailed(general_instance(n, seed))
    assert calls == []


def test_a_join_uncrosses_at_most_one_cycle_while_packing(monkeypatch):
    """After the plain exchanges a join tries single-cycle uncross variants
    only: over every join made while packing general n = 16..64, the join
    builds one screen, on its inputs, and derives every other by editing
    lanes; no screen has both its cycles changed from the join's inputs,
    and every move records at most one created uncrossing (both 0 and 1
    occur)."""
    screens, joins = [], []
    _record_screens(monkeypatch, screens)
    real_join = general.join_cycles

    def recorded_join(c1, c2, *args):
        first = len(screens)
        try:
            return real_join(c1, c2, *args)
        finally:
            made = screens[first:]
            joins.append([(s.fresh, s.cycles[0] == c1, s.cycles[1] == c2) for s in made])

    monkeypatch.setattr(general, "join_cycles", recorded_join)
    records, derived = set(), 0
    cases = [*product([16, 17, 24, 32, 33, 48, 64], [1, 2, 3]), (64, 4), (64, 5)]
    for n, seed in cases:
        joins.clear()
        result = pack_general_detailed(general_instance(n, seed))
        for made in joins:
            assert made[0] == (True, True, True), (n, seed)
            assert all(not fresh and (same1 or same2) for fresh, same1, same2 in made[1:])
            derived += len(made) - 1
        records |= {len(mv.created_uncrossings) for moves in result.join_log for mv in moves}
    assert records == {0, 1}
    assert derived


def test_join_screens_give_each_cycles_crossings_while_packing(monkeypatch):
    """Over every join made while packing general n = 16..64, each screen's
    `own_pairs` are `crossing_report`'s pairs for both its cycles (in its
    order on a fresh screen), and an uncrossed cycle goes on to be joined
    exactly when `is_one_plane` holds for it (both verdicts occur)."""
    events, joined = [], set()
    _record_screens(monkeypatch, events)
    real_uncross, real_plain_join = general.uncross, general._plain_join

    def recorded_uncross(*args):
        nc = real_uncross(*args)
        events.append(nc)
        return nc

    def recorded_plain_join(screen, *args):
        joined.add(id(screen))
        return real_plain_join(screen, *args)

    monkeypatch.setattr(general, "uncross", recorded_uncross)
    monkeypatch.setattr(general, "_plain_join", recorded_plain_join)
    verdicts = set()
    for n, seed in product([16, 17, 24, 32, 48, 64], [1, 2, 3]):
        ps = general_instance(n, seed)
        orc = coordinate_oracle(ps.points)
        events.clear()
        joined.clear()
        pack_general_detailed(ps)
        # an uncrossed cycle whose created edges are allowed gets the next screen
        for item, after in zip(events, events[1:] + [None]):
            if isinstance(item, _JoinScreen):
                for which, c in enumerate(item.cycles):
                    want = crossing_report(c, orc).pairs
                    got = item.own_pairs(which)
                    if item.fresh:
                        assert got == want
                    else:
                        assert set(map(frozenset, got)) == set(map(frozenset, want))
            elif isinstance(after, _JoinScreen) and item in after.cycles:
                kept = id(after) in joined
                assert kept == is_one_plane(item, orc), (n, seed, item)
                verdicts.add(kept)
    assert verdicts == {True, False}


def _fresh_twin(screen, points):
    """A screen built fresh on `screen`'s cycles."""
    xs, ys = [p.x for p in points], [p.y for p in points]
    return _JoinScreen(*screen.cycles, xs, ys, coordinate_oracle(points))


def test_derived_screens_match_fresh_screens_while_packing(monkeypatch):
    """Every screen derived by `uncrossed` while packing general n = 16..64
    gives what a screen built fresh on its cycles gives: the hit set of
    every cross-cycle edge, each held edge's crossings and their count,
    each cycle's own crossing pairs and 1-plane verdict, and the verdict on
    every exchange.  On both, each cycle's fixed ownership mask is the
    lanes of its edges."""
    screens = []
    _record_screens(monkeypatch, screens)
    derived = 0
    for n, seed in product([16, 17, 32, 33, 48, 64], [1, 2, 3]):
        ps = general_instance(n, seed)
        screens.clear()
        pack_general_detailed(ps)
        for screen in screens:
            if screen.fresh:
                continue
            derived += 1
            fresh = _fresh_twin(screen, ps.points)
            c1, c2 = screen.cycles
            for a in map(edge, *zip(*product(c1.order, c2.order))):
                assert _edges_in(screen, screen.hits(a)) == _edges_in(fresh, fresh.hits(a)), a
            for s in (screen, fresh):
                lanes = s.lanes
                assert set(lanes.lane) == set(c1.edges()) | set(c2.edges())
                for which, c in enumerate(s.cycles):
                    assert s.own[which] == sum(lanes.bit(lanes.lane[e]) for e in c.edges())
            for e in screen.lanes.lane:
                f, g = screen.lanes.lane[e], fresh.lanes.lane[e]
                m, w = screen.crossed[f], fresh.crossed[g]
                assert m.bit_count() == w.bit_count(), e
                assert _edges_in(screen, m) == _edges_in(fresh, w)
            assert _edges_in(screen, screen.over) == _edges_in(fresh, fresh.over)
            for which in (0, 1):
                got, want = screen.own_pairs(which), fresh.own_pairs(which)
                assert set(map(frozenset, got)) == set(map(frozenset, want))
                assert screen.one_plane(which) == fresh.one_plane(which)
            for cand in _exchanges(c1, c2):
                assert screen.candidate_ok(*cand) == fresh.candidate_ok(*cand), cand
    assert derived > 100


def test_join_screen_counts_an_edge_crossed_twice():
    # the square's two upright sides both cross the triangle's base
    pts = [Point(0, 0), Point(20, 0), Point(10, -10),
           Point(4, 3), Point(16, 3), Point(16, -3), Point(4, -3)]
    orc = coordinate_oracle(pts)
    c1, c2 = HamCycle((0, 1, 2)), HamCycle((3, 4, 5, 6))
    screen = _assert_screen_exact(c1, c2, pts, orc)
    assert _edges_in(screen, screen.over) == {(0, 1)}
    # some exchange fails on the base alone: its added edges cross nothing
    assert any(
        not screen.hits(a1) and not screen.hits(a2) and not screen.candidate_ok(r1, r2, a1, a2)
        for r1, r2, a1, a2 in _exchanges(c1, c2)
    )


def test_derived_screen_refuses_a_created_edge_crossed_twice():
    """Uncrossing (2, 3) and (4, 5) creates (3, 5), which crosses (0, 1)
    and (1, 6), two edges nothing else crosses: the derived screen refuses
    the uncrossed cycle, as `is_one_plane` does."""
    pts = [Point(22, 14), Point(19, 3), Point(18, 25), Point(19, 2), Point(17, 28),
           Point(20, 14), Point(30, 11), Point(100, 100), Point(130, 101), Point(101, 131)]
    orc = coordinate_oracle(pts)
    c1, c2 = HamCycle((0, 1, 6, 3, 2, 5, 4)), HamCycle((7, 8, 9))
    base = _JoinScreen(c1, c2, [p.x for p in pts], [p.y for p in pts], orc)
    pair = ((2, 3), (4, 5))
    assert is_one_plane(c1, orc) and pair in base.own_pairs(0)
    assert base.one_plane(0) and base.one_plane(1)
    nc = uncross(c1, pair, orc)
    created = tuple(e for e in nc.edges() if e not in c1.edges())
    screen = base.uncrossed(0, nc, pair, created)
    assert _edges_in(screen, screen.hits((3, 5))) == {(0, 1), (1, 6)}
    assert not is_one_plane(nc, orc)
    assert not screen.one_plane(0) and screen.one_plane(1)


@pytest.mark.parametrize("seed", range(6))
def test_join_screen_exact_on_interleaved_cycles(seed):
    # two marched cycles on interleaved halves cross each other often
    ps = general_instance(14, 100 + seed)
    order = random.Random(seed).sample(range(14), 14)
    c1, _, _ = march_cycle(ps, order[:7])
    c2, _, _ = march_cycle(ps, order[7:])
    _assert_screen_exact(c1, c2, ps.points, coordinate_oracle(ps.points))


def test_pack_general_incomplete_is_honest(monkeypatch):
    from hcpack import general
    from hcpack.errors import PackingIncomplete

    monkeypatch.setattr(general, "LEVEL_ATTEMPTS", 0)
    ps = general_instance(16, 0)
    with pytest.raises(PackingIncomplete) as exc:
        pack_general(ps)
    assert exc.value.level >= 2
    assert 1 <= len(exc.value.cycles) < 3


def test_reference_instance_hull(reference_13_points):
    from hcpack import convex_hull

    hull = set(convex_hull(reference_13_points.points))
    assert {1, 2} <= hull


def test_reference_instance_default_bisection(reference_13_points):
    from hcpack import bisecting_line

    bi = bisecting_line(reference_13_points, range(13))
    assert (len(bi.left), len(bi.right)) == (7, 6)


def test_pack_general_scales_past_corpus_sizes():
    # n = 64 adds a sixth level; five disjoint verified cycles expected
    ps = general_instance(64, 11)
    packing = pack_general(ps)
    assert len(packing) >= 5
    orc = coordinate_oracle(ps.points)
    seen = set()
    for c in packing.cycles:
        assert verify_hamiltonian(c, 64)
        assert is_one_plane(c, orc)
        es = set(c.edges())
        assert not (es & seen)
        seen |= es


def test_general_position_pack_never_leaves_the_integer_kernel(monkeypatch):
    """Neither the pack nor its verification hands a pair to
    segments_properly_cross, and the verifier's oracle refuses a collinear
    touch at its door."""
    calls = []
    fallback = geometry.segments_properly_cross

    def counting(e1, e2):
        calls.append((e1, e2))
        return fallback(e1, e2)

    monkeypatch.setattr(geometry, "segments_properly_cross", counting)
    ps = general_instance(20, 1)
    cycles = pack_general(ps).cycles
    assert len(cycles) >= 3
    assert verify_packing(cycles, 20, oracle_for(ps))["ok"]
    assert calls == []
    # (1, 0) touches the segment (0, 0)-(2, 0): a collinear triple
    with pytest.raises(DegenerateInput):
        coordinate_oracle([Point(0, 0), Point(2, 0), Point(1, 0), Point(1, 1)])


def _pack_record(points):
    result = pack_general_detailed(points)
    return (
        [c.order for c in result.packing.cycles],
        [[(mv.removed, mv.added, mv.created_uncrossings) for mv in moves]
         for moves in result.join_log],
    )


def _assert_hits_exact(screens, points):
    """Every cross-cycle pair's `hits` are the screen edges the oracle says
    it crosses."""
    orc = coordinate_oracle(points)
    for screen in screens:
        c1, c2 = screen.cycles
        for u, v in product(c1.order, c2.order):
            a = edge(u, v)
            want = {f for f in screen.lanes.lane if orc(a, f)}
            assert _edges_in(screen, screen.hits(a)) == want, (a, want)


# lane values of these sets run far past 64 bits: 2^64 + 1 and 3^40 scale
# them, and the offsets move every coordinate past 2^90
SCALES = [2**64 + 1, 3**40]
OFFSETS = [(-3 * 10**30, 7 * 10**29), (-(2**90), 5)]


def test_scaled_sets_pack_and_screen_as_the_unscaled(monkeypatch):
    """A positive scale and an offset keep every orientation, so the packed
    side tests must give the same packing and join log; the screens made on
    the scaled sets, fresh or derived, keep exact hits."""
    screens = []
    _record_screens(monkeypatch, screens)
    for n, seed in product([16, 17, 24, 32, 33], [1, 2, 3]):
        points = general_instance(n, seed).points
        want = _pack_record(points)
        for scale, (tx, ty) in product(SCALES, OFFSETS):
            moved = [Point(scale * p.x + tx, scale * p.y + ty) for p in points]
            screens.clear()
            assert _pack_record(moved) == want, (n, seed, scale, tx, ty)
            _assert_hits_exact(screens, moved)


def test_join_screen_hits_match_the_oracle_while_packing(monkeypatch):
    screens = []
    _record_screens(monkeypatch, screens)
    cases = [*product([16, 17, 24, 32, 33], [1, 2, 3]), (48, 1), (64, 1)]
    for n, seed in cases:
        ps = general_instance(n, seed)
        screens.clear()
        pack_general_detailed(ps)
        assert screens
        _assert_hits_exact(screens, ps.points)


def eager_moves(march, pair, r1, r2, e1, e2):
    """`_March._moves` as it was before it became lazy: every move's
    conformity first, then the conforming moves and the rest, each in the
    order rung, bridge at v1, bridge at v2."""
    v1, v2 = pair
    on_side, key = march._on_side, march.key
    moves = [
        ((e1, v2), (e2, v1), (v1, v2)),
        ((v1, e2), (v1, v2), (e1, v2)),
        ((v2, e1), (v2, v1), (v1, e2)),
    ]
    conforming = [on_side(v1, v2, -march.bs, (e1, e2))]
    for vi, ei, eo in ((v1, e1, e2), (v2, e2, e1)):
        d = key[ei] - key[vi]
        lbs = (d > 0) - (d < 0)
        conforming.append(
            lbs != 0
            and on_side(vi, ei, -lbs, (eo,))
            and on_side(vi, ei, lbs, r1)
            and on_side(vi, ei, lbs, r2)
        )
    flagged = list(zip(moves, conforming))
    return [m for m, ok in flagged if ok] + [m for m, ok in flagged if not ok], conforming[0]


def test_lazy_march_moves_keep_the_eager_order(monkeypatch):
    """At every march node of general packs n = 16..64 the lazy moves come
    in the eager order, and a conforming rung comes after one side scan."""
    lazy, on_side = _March._moves, _March._on_side
    scans, rungs_first = [0], [0]

    def counted(self, *args):
        scans[0] += 1
        return on_side(self, *args)

    def checked(self, *args):
        # read while the search runs, so each later move is made after the
        # subtrees of the earlier ones have been searched and undone
        want, rung_ok = eager_moves(self, *args)
        scans[0] = 0
        for k, move in enumerate(lazy(self, *args)):
            if k == 0 and rung_ok:
                assert scans[0] == 1
                rungs_first[0] += 1
            assert move == want[k]
            yield move

    monkeypatch.setattr(_March, "_on_side", counted)
    monkeypatch.setattr(_March, "_moves", checked)
    for n, seed in [*product([16, 17, 24, 32, 33], [1, 2, 3]), (48, 1), (48, 2), (64, 1)]:
        pack_general_detailed(general_instance(n, seed))
    assert rungs_first[0] > 1000
