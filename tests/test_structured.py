import hashlib

import pytest

from hcpack import (
    HamCycle,
    boundary_edge_count,
    check_boundary_minimum,
    check_wheel_boundary,
    convex_oracle,
    is_one_plane,
    pack_convex,
    pack_wheel,
    radial_edge_count,
    verify_hamiltonian,
    verify_packing,
    wheel_oracle,
)
from hcpack import cycles, geometry, structured
from hcpack.errors import ConstructionFailed, InvalidN
from hcpack.geometry import Config

from conftest import CountingRing

# sha256 over the cycle orders of pack_convex(n), n = 3..130, then of
# pack_wheel(n), even n = 10..80; a change to it means a packer's output
# changed.  Re-pinned when pack_wheel came to take the first free slot of
# r+1, r, p+1, p everywhere: n = 10 and 12 now splice at slots (7, 7, 7)
# and (9, 8, 8), where a table kept (6, 3, 7) and (8, 8, 8) from older
# output; every other n is unchanged (WHEEL_14_400_DIGEST).  It was
# c26aff931c2f14c4efd241f5fd2ec70ea0d48463fc0e365a95a5a468973ef167.
STRUCTURED_PACKINGS_DIGEST = "86c3ff92372ce04627f66f0df1ee41a7b71441687bb9ad894111ec9d3455ccd4"

# sha256 over the cycle orders of pack_wheel(n), even n = 10..200,
# re-pinned for n = 10 and 12 as above.  It was
# 0933c97fff5a71dc33974b827d9ddebc6ab8599d30b1146d1329cd90e05fb74a.
WHEEL_PACKINGS_DIGEST = "c55c375927284cf668069eea161b09d40b773dc959a57c123197efc410c78e12"

# sha256 over the cycle orders of pack_wheel(n), even n = 14..400, recorded
# while the slots still came from a closed form in n mod 8 and n mod 3
WHEEL_14_400_DIGEST = "719e69455f0f1e4845bb95dd240b76a6b1291d4d093bdd2be15134831e31fde0"

# Frozen reference packings used as regression fixtures.
REF_CONVEX_12 = [
    [(0, 1), (0, 2), (1, 11), (3, 11), (2, 10), (3, 9), (4, 10), (5, 9),
     (4, 8), (5, 7), (6, 8), (7, 6)],
    [(1, 2), (2, 3), (1, 4), (3, 0), (0, 5), (4, 11), (11, 6), (5, 10),
     (10, 7), (6, 9), (9, 8), (7, 8)],
    [(3, 4), (4, 2), (3, 5), (5, 1), (2, 6), (1, 7), (0, 6), (0, 8),
     (11, 7), (11, 9), (10, 8), (10, 9)],
    [(4, 5), (5, 6), (6, 3), (4, 7), (7, 2), (3, 8), (8, 1), (2, 9),
     (9, 0), (1, 10), (10, 11), (0, 11)],
]
REF_CONVEX_13 = [
    [(0, 1), (1, 12), (12, 3), (3, 10), (10, 5), (5, 8), (8, 7), (7, 6),
     (6, 9), (9, 4), (4, 11), (11, 2), (2, 0)],
    [(8, 9), (9, 7), (7, 11), (11, 5), (5, 0), (0, 3), (3, 2), (2, 1),
     (1, 4), (4, 12), (12, 6), (6, 10), (10, 8)],
    [(3, 4), (4, 2), (2, 6), (6, 0), (0, 8), (8, 11), (11, 10), (10, 9),
     (9, 12), (12, 7), (7, 1), (1, 5), (5, 3)],
    [(11, 12), (12, 10), (10, 1), (1, 8), (8, 3), (3, 6), (6, 5), (5, 4),
     (4, 7), (7, 2), (2, 9), (9, 0), (0, 11)],
]
X = 13  # wheel center sentinel for n=14
REF_WHEEL_14 = [
    [(0, 1), (1, 12), (12, 3), (3, 10), (10, 5), (5, 8), (8, 7), (7, 6),
     (6, 9), (9, 4), (4, X), (X, 11), (11, 2), (2, 0)],
    [(8, 9), (9, 7), (7, 11), (11, 5), (5, 0), (0, 3), (3, 2), (2, 1),
     (1, 4), (4, 12), (12, X), (X, 6), (6, 10), (10, 8)],
    [(3, 4), (4, 2), (2, 6), (6, 0), (0, 8), (8, 11), (11, 10), (10, 9),
     (9, 12), (12, 7), (7, X), (X, 1), (1, 5), (5, 3)],
    [(11, 12), (12, 10), (10, 1), (1, 8), (8, 3), (3, 6), (6, 5), (5, 4),
     (4, 7), (7, 2), (2, X), (X, 9), (9, 0), (0, 11)],
]


def canon_edges(edges):
    return frozenset(tuple(sorted(e)) for e in edges)


def test_zigzag_three_boundary_reference():
    cyc = structured._zigzags(13)[0]
    assert cyc.order == (0, 1, 12, 3, 10, 5, 8, 7, 6, 9, 4, 11, 2)
    assert canon_edges(cyc.edges()) == canon_edges(REF_CONVEX_13[0])


def test_zigzag_triangle():
    assert [c.order for c in structured._zigzags(3)] == [(0, 1, 2)]


def test_pack_convex_reference_sizes():
    assert len(pack_convex(12)) == 4
    assert len(pack_convex(13)) == 4
    assert [c.order for c in pack_convex(3).cycles] == [(0, 1, 2)]
    assert len(pack_convex(4)) == 1
    with pytest.raises(InvalidN):
        pack_convex(2)


def test_pack_convex_matches_reference_12():
    built = [canon_edges(c.edges()) for c in pack_convex(12).cycles]
    for want in REF_CONVEX_12:
        assert canon_edges(want) in built


def test_pack_convex_matches_reference_13():
    built = [canon_edges(c.edges()) for c in pack_convex(13).cycles]
    for want in REF_CONVEX_13:
        assert canon_edges(want) in built


@pytest.mark.parametrize("n", range(3, 49))
def test_pack_convex_full_range(n):
    packing = pack_convex(n)
    assert len(packing) == n // 3
    orc = convex_oracle(n)
    seen = set()
    for c in packing.cycles:
        assert verify_hamiltonian(c, n)
        assert is_one_plane(c, orc)
        assert check_boundary_minimum(c, n)
        es = set(c.edges())
        assert not (es & seen)
        seen |= es


def test_pack_convex_boundary_edges_used_once():
    for n in (12, 13, 18, 24):
        packing = pack_convex(n)
        boundary_used = [
            e
            for c in packing.cycles
            for e in c.edges()
            if (e[1] - e[0]) % n in (1, n - 1)
        ]
        assert len(boundary_used) == len(set(boundary_used))


def test_pack_convex_rotation_symmetry():
    # rotating every label of a valid packing gives another valid packing
    n = 12
    packing = pack_convex(n)
    orc = convex_oracle(n)
    for shift in (1, 5):
        rotated = [
            HamCycle(tuple((v + shift) % n for v in c.order)) for c in packing.cycles
        ]
        seen = set()
        for c in rotated:
            assert is_one_plane(c, orc)
            es = set(c.edges())
            assert not (es & seen)
            seen |= es


def test_pack_wheel_reference_sizes():
    assert len(pack_wheel(14)) == 4
    assert len(pack_wheel(10)) == 3
    with pytest.raises(InvalidN):
        pack_wheel(8)
    with pytest.raises(InvalidN):
        pack_wheel(13)


def test_pack_wheel_matches_reference_14():
    built = [canon_edges(c.edges()) for c in pack_wheel(14).cycles]
    for want in REF_WHEEL_14:
        assert canon_edges(want) in built


@pytest.mark.parametrize("n", range(10, 49, 2))
def test_pack_wheel_full_range(n):
    packing = pack_wheel(n)
    assert len(packing) == (n - 1) // 3
    orc = wheel_oracle(n)
    seen = set()
    for c in packing.cycles:
        assert verify_hamiltonian(c, n)
        assert is_one_plane(c, orc)
        assert radial_edge_count(c, n) == 2
        assert boundary_edge_count(c, n, config=Config.WHEEL) == 3
        assert check_wheel_boundary(c, n)
        es = set(c.edges())
        assert not (es & seen)
        seen |= es


def _zigzags_anchor_by_anchor(n):
    """`structured._zigzags` restated: each anchor's schedule expanded anew."""

    def expand(offsets, a):
        return HamCycle(tuple((a + o) % n for o in offsets(n)))

    k = n // 3
    if n % 2 == 1:
        m = (n - 1) // 2
        return [expand(structured._offsets_three, ((m + 2) * i) % n) for i in range(k)]
    t_a = (k + 1) // 2
    return [expand(structured._offsets_two, 3 * i) for i in range(t_a)] + [
        expand(structured._offsets_four, 3 * j + 2) for j in range(k - t_a)
    ]


def test_zigzags_equal_anchor_by_anchor_expansion():
    # the packing digests stop at n = 130 (convex) and 200 (wheel rims)
    for n in range(3, 201):
        assert structured._zigzags(n) == _zigzags_anchor_by_anchor(n), n


def test_zigzag_schedule_revisiting_an_index_raises_in_zigzags(monkeypatch):
    monkeypatch.setattr(structured, "_offsets_three", lambda n: [0, 1, 1] + list(range(3, n)))
    with pytest.raises(ValueError, match="repeated vertex"):
        structured._zigzags(13)


def test_pack_wheel_boundary_edges_used_once():
    for n in (10, 14, 22, 30):
        m = n - 1
        packing = pack_wheel(n)
        boundary_used = [
            e
            for c in packing.cycles
            for e in c.edges()
            if n - 1 not in e and (e[1] - e[0]) % m in (1, m - 1)
        ]
        assert len(boundary_used) == len(set(boundary_used))


def test_structured_packings_unchanged():
    digest = hashlib.sha256()
    for n in range(3, 131):
        digest.update(repr([c.order for c in pack_convex(n).cycles]).encode())
    for n in range(10, 81, 2):
        digest.update(repr([c.order for c in pack_wheel(n).cycles]).encode())
    assert digest.hexdigest() == STRUCTURED_PACKINGS_DIGEST


def test_pack_wheel_splice_search_asks_no_pair(monkeypatch):
    """The splice search reads crossings from ring sweeps, not pair by pair."""
    made = []

    def counting_oracle(n):
        made.append(CountingRing(wheel_oracle(n)))
        return made[-1]

    monkeypatch.setattr(structured, "wheel_oracle", counting_oracle)
    assert len(pack_wheel(64)) == 21
    assert made and all(o.calls == 0 for o in made)


def test_wheel_packings_unchanged_to_200():
    digest = hashlib.sha256()
    for n in range(10, 201, 2):
        digest.update(repr([c.order for c in pack_wheel(n).cycles]).encode())
    assert digest.hexdigest() == WHEEL_PACKINGS_DIGEST


def test_wheel_packings_unchanged_from_14_to_400():
    digest = hashlib.sha256()
    for n in range(14, 401, 2):
        digest.update(repr([c.order for c in pack_wheel(n).cycles]).encode())
    assert digest.hexdigest() == WHEEL_14_400_DIGEST


@pytest.mark.parametrize("n, slots", [(10, (7, 7, 7)), (12, (9, 8, 8))])
def test_small_wheels_take_the_first_free_slot(n, slots):
    packing = pack_wheel(n)
    assert tuple(c.order.index(n - 1) - 1 for c in packing.cycles) == slots
    assert verify_packing(packing.cycles, n, wheel_oracle(n))["ok"]


def test_pack_wheel_slot_rule_holds_beyond_the_digest():
    """Past n = 200 every wheel still packs: a radial clash would raise."""
    for n in range(202, 257, 2):
        assert len(pack_wheel(n)) == (n - 1) // 3


def _rotation_key(order, ring):
    """Ring positions of `order`, turned to put its first rim vertex at 0."""
    pos = [ring.label[v] for v in order]
    base = pos[0] if pos[0] != ring.m else pos[1]
    return tuple(p if p == ring.m else (p - base) % ring.m for p in pos)


def _counting_sweeps(monkeypatch):
    calls = []
    real = cycles.crossing_report

    def counting_report(c, oracle):
        calls.append((c, oracle))
        return real(c, oracle)

    monkeypatch.setattr(cycles, "crossing_report", counting_report)
    monkeypatch.setattr(structured, "crossing_report", counting_report)
    return calls


@pytest.mark.parametrize("pack, n, k", [(pack_wheel, 128, 42), (pack_convex, 160, 53)],
                         ids=["wheel128", "convex160"])
def test_structured_packers_sweep_once_per_rotation_class(monkeypatch, pack, n, k):
    """Crossings are counted only by the final verification, one sweep per
    rotation class: the packings are two zigzag shapes turned round the rim."""
    calls = _counting_sweeps(monkeypatch)
    assert len(pack(n)) == k
    assert len(calls) == 2
    keys = [_rotation_key(c.order, oracle) for c, oracle in calls]
    assert len(set(keys)) == len(keys)


# Hamiltonian cycles on 12 convex points and on the 13 rim points of wheel
# 14: their turns by 0, 3, 6, 9 (the wheel's with the center spliced in) are
# pairwise edge-disjoint, and each has edges crossed at least twice
_TANGLED_12 = (0, 1, 8, 3, 5, 7, 4, 9, 6, 10, 2, 11)
_TANGLED_RIM_13 = (0, 8, 11, 12, 9, 2, 6, 7, 3, 1, 5, 4, 10)


@pytest.mark.parametrize("pack, n, rim", [(pack_convex, 12, _TANGLED_12),
                                          (pack_wheel, 14, _TANGLED_RIM_13)],
                         ids=["convex12", "wheel14"])
def test_turned_copies_of_a_tangled_cycle_fail_the_packers(monkeypatch, pack, n, rim):
    # pack_wheel(14) splices the center at one slot in every cycle, so its
    # cycles are turned copies too; one sweep condemns the whole class
    m = len(rim)
    monkeypatch.setattr(structured, "_zigzags", lambda _: [
        HamCycle(tuple((v + t) % m for v in rim)) for t in (0, 3, 6, 9)
    ])
    calls = _counting_sweeps(monkeypatch)
    with pytest.raises(ConstructionFailed):
        pack(n)
    assert len(calls) == 1


def test_pack_wheel_slot_miss_is_a_construction_failure(monkeypatch):
    # the same zigzags with the first two swapped: at n = 28 the last cycle
    # finds the radial ends of all four slots taken and falls back to p,
    # so it is 1-plane and its rim edges are disjoint from the others',
    # but it shares a radial with an earlier cycle
    real = structured._zigzags
    monkeypatch.setattr(structured, "_zigzags", lambda m: [*real(m)[1::-1], *real(m)[2:]])
    spliced = []
    real_verify = structured._verify_family
    monkeypatch.setattr(structured, "_verify_family",
                        lambda cs, *rest: (spliced.append(cs), real_verify(cs, *rest)))
    with pytest.raises(ConstructionFailed):
        pack_wheel(28)
    (cs,) = spliced
    assert all(is_one_plane(c, wheel_oracle(28)) for c in cs)
    seen = [e for c in cs for e in c.edges()]
    assert sorted({e for e in seen if seen.count(e) > 1}) == [(7, 27)]
    assert cs[-1].order.index(27) - 1 == (28 - 2) // 4


# perfbench/tracer.py patches these names on hcpack.structured, where the
# packers look them up; each must stay there as its home module's object
TRACED_ON_STRUCTURED = {
    "convex_oracle": geometry,
    "wheel_oracle": geometry,
    "is_one_plane": cycles,
    "crossing_report": cycles,
    "pack_convex": structured,
    "pack_wheel": structured,
}


@pytest.mark.parametrize("name", sorted(TRACED_ON_STRUCTURED))
def test_traced_names_stay_on_structured(name):
    home = TRACED_ON_STRUCTURED[name]
    assert name in vars(structured)
    assert vars(structured)[name] is vars(home)[name]
    assert vars(home)[name].__module__ == home.__name__
