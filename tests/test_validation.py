"""Configuration validation: each PointSet configuration is accepted exactly
when its crossing oracle is sound, and validation leaves generated
instances unchanged."""

import hashlib
import math
from itertools import combinations

import pytest
from hypothesis import example, given, settings, strategies as st

from hcpack import (
    Config,
    Orientation,
    Point,
    PointSet,
    convex_hull,
    coordinate_oracle,
    generate,
    in_general_position,
    oracle_for,
    orientation,
)
from hcpack.errors import DegenerateInput
from hcpack.geometry import _wheel_arcs_agree, short_arc
from hcpack.instances import _regular_polygon

from conftest import reference_convex_hull

# sha256 over the digests of generated instances: convex n = 3..129 with
# seeds 0, 1, 7 (seed inner), wheel n = 4..64 step 2 with seed 0, general
# n = 3..39 with seed 3, in that order.  Recorded before validation moved to
# the per-configuration checks; a change to it means generated files changed.
INSTANCE_CORPUS_DIGEST = "e4fe9cc3c5467695133b73bc5707c8e790b6fbd306d1b6a98bfca4efb5bc24ba"


def brute_general_position(points):
    if len(set(points)) != len(points):
        return False
    return all(
        orientation(a, b, c) is not Orientation.COLLINEAR
        for a, b, c in combinations(points, 3)
    )


small = st.builds(Point, st.integers(0, 4), st.integers(0, 4))


@settings(max_examples=400)
@given(st.lists(small, min_size=3, max_size=9))
def test_general_position_matches_triple_loop(points):
    assert in_general_position(points) == brute_general_position(points)


def assert_oracles_agree(ps):
    comb = oracle_for(ps)
    coords = coordinate_oracle(ps.points)
    n = len(ps)
    for e1, e2 in combinations(combinations(range(n), 2), 2):
        if set(e1) & set(e2):
            continue
        assert comb(e1, e2) == coords(e1, e2), (ps.config, ps.points, e1, e2)


def rotated(points, k):
    return points[k:] + points[:k]


@pytest.mark.parametrize("n", range(3, 13))
def test_convex_oracle_sound_on_accepted_instances(n):
    for seed in (0, 1, 7):
        pts = generate(Config.CONVEX, n, seed).to_point_set().points
        for k in range(n):
            assert_oracles_agree(PointSet(rotated(pts, k), Config.CONVEX))


@pytest.mark.parametrize("n", range(4, 13, 2))
def test_wheel_oracle_sound_on_accepted_instances(n):
    *rim, center = generate(Config.WHEEL, n, seed=0).to_point_set().points
    for k in range(n - 1):
        for c in range(n):
            listed = rotated(rim, k)
            listed.insert(c, center)
            assert_oracles_agree(PointSet(tuple(listed), Config.WHEEL, center_index=c))


grid = st.builds(Point, st.integers(-30, 30), st.integers(-30, 30))


@settings(max_examples=300, deadline=None)
@given(st.lists(grid, min_size=3, max_size=12), grid, st.integers(0, 12), st.integers(0, 12))
def test_oracles_agree_on_any_accepted_hull(cloud, center, k, c):
    """Hull vertices of a random cloud, rotated, as a convex set; with an odd
    count and a random center, as a wheel.  Whatever validation accepts, the
    combinatorial oracle must decide exactly as the coordinates do."""
    try:
        hull = [cloud[i] for i in convex_hull(cloud)]
    except DegenerateInput:
        return
    listed = rotated(hull, k % len(hull))
    assert_oracles_agree(PointSet(tuple(listed), Config.CONVEX))
    if len(hull) % 2 == 1:
        c %= len(hull) + 1
        listed.insert(c, center)
        try:
            ps = PointSet(tuple(listed), Config.WHEEL, center_index=c)
        except DegenerateInput:
            return
        assert_oracles_agree(ps)


def _hull_or_message(hull, points):
    try:
        return hull(points)
    except DegenerateInput as exc:
        return str(exc)


tiny = st.builds(Point, st.integers(-3, 3), st.integers(-3, 3))
_line = [Point(t, 2 * t) for t in range(-3, 4)]


@settings(max_examples=500)
@given(st.lists(tiny, max_size=12))
@example(_line)
@example(_line + _line)
@example(_line + [Point(0, 1)])
@example([Point(1, 1)] * 5)
def test_flat_hull_matches_the_orientation_hull(points):
    """On a 7 x 7 grid duplicates and collinear triples are common: the flat
    hull must drop exactly the points the reference drops, in its order,
    and refuse exactly the lists it refuses, with the same message."""
    assert _hull_or_message(convex_hull, points) == _hull_or_message(reference_convex_hull, points)


def _reference_arcs_agree(rim, center):
    """The wheel arc rule as stated, one `orientation` per rim pair."""
    m = len(rim)
    return all(
        orientation(rim[a], rim[b], center)
        is (Orientation.CCW if short_arc(a, b, m) else Orientation.CW)
        for a, b in combinations(range(m), 2)
    )


def _on_chords(rim):
    """The lattice points strictly inside the rim's chords."""
    found = set()
    for p, q in combinations(rim, 2):
        dx, dy = q.x - p.x, q.y - p.y
        g = math.gcd(dx, dy)
        found.update(Point(p.x + t * dx // g, p.y + t * dy // g) for t in range(1, g))
    return found


@pytest.mark.parametrize("m", range(3, 16, 2))
def test_flat_wheel_arcs_match_the_orientation_rule(m):
    """Regular rims with the center moved by small offsets, and with the
    center on a chord, where the zero determinant must reject."""
    accepted = on_chord = 0
    shifted = {Point(dx, dy) for dx in range(-4, 5) for dy in range(-4, 5)}
    for radius in (6, 11, 40, 200):
        rim = [Point(x, y) for x, y in _regular_polygon(m, radius)]
        chords = _on_chords(rim)
        for center in shifted | chords:
            flat = _wheel_arcs_agree(rim, center)
            assert flat == _reference_arcs_agree(rim, center), (m, radius, center)
            accepted += flat
            if center in chords:
                assert not flat
                on_chord += 1
    assert accepted and on_chord


def test_pentagram_is_not_convex():
    pentagon = [Point(x, y) for x, y in _regular_polygon(5, 10**6)]
    PointSet(tuple(pentagon), Config.CONVEX)
    star = tuple(pentagon[i] for i in (0, 2, 4, 1, 3))
    # every vertex of the star turns left, but it winds twice
    assert all(
        orientation(star[i], star[(i + 1) % 5], star[(i + 2) % 5]) is Orientation.CCW
        for i in range(5)
    )
    with pytest.raises(DegenerateInput):
        PointSet(star, Config.CONVEX)


def test_off_center_wheel_is_rejected():
    rim = [Point(x, y) for x, y in _regular_polygon(9, 10**6)]
    PointSet(tuple(rim + [Point(0, 0)]), Config.WHEEL, center_index=9)
    with pytest.raises(DegenerateInput):
        PointSet(tuple(rim + [Point(700000, 0)]), Config.WHEEL, center_index=9)


def test_generated_instances_unchanged():
    digest = hashlib.sha256()
    for n in range(3, 130):
        for seed in (0, 1, 7):
            digest.update(generate(Config.CONVEX, n, seed).digest().encode())
    for n in range(4, 65, 2):
        digest.update(generate(Config.WHEEL, n, 0).digest().encode())
    for n in range(3, 40):
        digest.update(generate(Config.GENERAL, n, 3).digest().encode())
    assert digest.hexdigest() == INSTANCE_CORPUS_DIGEST
