"""Acceptance suite: one test per release criterion, one PASS line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines and the
measured runtimes.  The general-position corpora are frozen by the seed
formulas below, and the packers' output on them by the digests below.
"""

import hashlib
import time

from hcpack import (
    Config,
    march_cycle,
    coordinate_oracle,
    convex_oracle,
    enumerate_1phc,
    generate,
    is_one_plane,
    max_packing_exact,
    pack_convex,
    pack_general_detailed,
    pack_wheel,
    property_sweep,
    radial_edge_count,
    verify_hamiltonian,
    verify_packing,
    wheel_oracle,
)

from conftest import convex_instance, wheel_instance
from test_structured import REF_CONVEX_12, REF_CONVEX_13, REF_WHEEL_14, canon_edges

GENERAL_CORPUS_A = [(n, 31 * s + n) for n in range(5, 33)
                    for s in range(8 if n <= 8 else 7)][:200]
GENERAL_CORPUS_B = [(n, 7777 * s + n) for n in (8, 16, 17, 32, 33)
                    for s in range(50)]

# sha256 over every march cycle of corpus A, and over every packed cycle and
# join move of corpus B.  A change that alters either output must say why and
# record the new digest here.
CORPUS_A_MARCH_DIGEST = "989d75e892ed6c899a518098e927165443ddd12ea38d50b87713ee2ac028e2f1"
# Corpus B was b0807b860d5133e671b61ecd0efbc649bea91e0668f3555a818e632afce6d03e
# while a join that failed its single-cycle uncross variants went on to
# uncross both cycles at once.  With that stage gone, (n, seed) = (17, 342205),
# (32, 7809) and (33, 303336) pack differently; each still verifies with at
# least k - 1 cycles, and the other 247 instances are unchanged.
# It was then 9a33839f254ac0c567cb49e9268c0a629ba9368b895a4ece91a4d786327afcac
# while a part whose level cut admitted no march was marched again on a cut
# of its own.  With that retry gone, such a level attempt fails and the next
# cut variant is tried: 64 instances pack differently (19 at n = 17, 6 at
# n = 32, 39 at n = 33), each with the same number of verified cycles as
# before, and the other 186 are unchanged.
# It was then 34b2a36def64ae8ed558b8bbcf54eddc432d1353343b625bc0abde3764c62bb4
# while a march's stone steered the next level's cuts (a stone-keeping
# ham-sandwich cut, else a separating line).  With every part pair on its
# plain ham-sandwich cut, 83 instances pack differently (37 at n = 17,
# 46 at n = 33), each with the same number of verified cycles as before,
# and the other 167 are unchanged.
CORPUS_B_PACK_DIGEST = "1b15d9f01868d0679fed8f4c9b96148c0d5a29b6191a48deb13c84515550c497"


def report(name, ok, elapsed, detail=""):
    line = f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} ({elapsed:.2f}s)"
    if detail:
        line += f" {detail}"
    print(line)
    assert ok, line


def test_criterion_1_convex_packing():
    t0 = time.time()
    for n in range(3, 49):
        packing = pack_convex(n)
        assert len(packing) == n // 3, f"n={n}: {len(packing)} != {n // 3}"
        rep = verify_packing(packing.cycles, n, convex_oracle(n))
        assert rep["ok"], f"n={n}: verification failed"
    elapsed = time.time() - t0
    report("1 convex floor(n/3) for n in [3,48]", elapsed < 1.0, elapsed)


def test_criterion_2_wheel_packing():
    t0 = time.time()
    for n in range(10, 49, 2):
        packing = pack_wheel(n)
        assert len(packing) == (n - 1) // 3, f"n={n}"
        rep = verify_packing(packing.cycles, n, wheel_oracle(n))
        assert rep["ok"], f"n={n}: verification failed"
        for c in packing.cycles:
            assert radial_edge_count(c, n) == 2, f"n={n}: radial count"
    elapsed = time.time() - t0
    report("2 wheel floor((n-1)/3) for even n in [10,48]", elapsed < 1.0, elapsed)


def test_criterion_3_tightness():
    t0 = time.time()
    for n in range(3, 9):
        rep = max_packing_exact(convex_instance(n))
        assert rep.max_packing_size == n // 3, f"convex n={n}: {rep.max_packing_size}"
    for n in (12, 13, 14):
        rep = max_packing_exact(convex_instance(n), max_n=n)
        assert rep.max_packing_size == n // 3, f"convex n={n}: {rep.max_packing_size}"
    for n in (10, 12):
        rep = max_packing_exact(wheel_instance(n), max_n=n)
        assert rep.max_packing_size == 3, f"wheel {n}: {rep.max_packing_size}"
    elapsed = time.time() - t0
    report("3 exhaustive tightness (convex 3..8, 12..14; wheel 10, 12)", elapsed < 120.0, elapsed)


def test_criterion_3_convex_n9():
    t0 = time.time()
    rep = max_packing_exact(convex_instance(9), max_n=9)
    assert rep.max_packing_size == 3
    elapsed = time.time() - t0
    report("3b convex n=9 tightness", elapsed < 600.0, elapsed)


def test_criterion_4_structure_predicates():
    t0 = time.time()
    for n in range(3, 9):
        rep = property_sweep(convex_instance(n))
        assert rep["counterexamples"] == [], f"convex n={n}: {rep['counterexamples'][:3]}"
    rep = property_sweep(convex_instance(12), max_n=12)
    assert rep["counterexamples"] == [], f"convex n=12: {rep['counterexamples'][:3]}"
    assert rep["cycles_checked"] == 1860
    for n, count in ((10, 1044), (12, 6347)):
        rep = property_sweep(wheel_instance(n), max_n=n)
        assert rep["counterexamples"] == [], f"wheel {n}: {rep['counterexamples'][:3]}"
        assert rep["cycles_checked"] == count
    elapsed = time.time() - t0
    report("4 structure sweeps (convex 3..8, 12; wheel 10, 12), zero counterexamples",
           elapsed < 120.0, elapsed)


def test_criterion_5_single_cycle_corpus():
    assert len(GENERAL_CORPUS_A) == 200
    t0 = time.time()
    digest = hashlib.sha256()
    for n, seed in GENERAL_CORPUS_A:
        ps = generate(Config.GENERAL, n, seed=seed).to_point_set()
        cyc, _, _ = march_cycle(ps, range(n))
        digest.update(repr((n, seed, cyc.order)).encode())
        assert verify_hamiltonian(cyc, n), f"n={n} seed={seed}"
        assert is_one_plane(cyc, coordinate_oracle(ps.points)), f"n={n} seed={seed}"
        if n <= 8:
            assert cyc.canonical() in enumerate_1phc(ps), f"n={n} seed={seed}"
    assert digest.hexdigest() == CORPUS_A_MARCH_DIGEST, "march output changed"
    elapsed = time.time() - t0
    report("5 ladder march on 200 seeded instances", elapsed < 30.0, elapsed)


def test_criterion_6_general_packing_corpus():
    assert len(GENERAL_CORPUS_B) == 250
    t0 = time.time()
    incomplete = 0
    digest = hashlib.sha256()
    for n, seed in GENERAL_CORPUS_B:
        k = n.bit_length() - 1
        ps = generate(Config.GENERAL, n, seed=seed).to_point_set()
        result = pack_general_detailed(ps)  # PackingIncomplete would propagate
        packing = result.packing
        digest.update(repr((
            n,
            seed,
            [c.order for c in packing.cycles],
            [[(mv.removed, mv.added, mv.created_uncrossings) for mv in moves]
             for moves in result.join_log],
        )).encode())
        assert len(packing) >= k - 1, f"n={n} seed={seed}: {len(packing)} < {k - 1}"
        orc = coordinate_oracle(ps.points)
        seen = set()
        for c in packing.cycles:
            assert verify_hamiltonian(c, n), f"n={n} seed={seed}"
            assert is_one_plane(c, orc), f"n={n} seed={seed}"
            es = set(c.edges())
            assert not (es & seen), f"n={n} seed={seed}: shared edge"
            seen |= es
    assert digest.hexdigest() == CORPUS_B_PACK_DIGEST, "packing or join moves changed"
    elapsed = time.time() - t0
    report(
        "6 recursive packing, 250 instances, zero incomplete",
        elapsed < 300.0,
        elapsed,
        detail=f"incomplete={incomplete}",
    )


def test_criterion_7_reference_packings():
    t0 = time.time()

    def relabelings(n, extra_fixed=None):
        """Index maps induced by rotating/reflecting the hull labels."""
        maps = []
        m = n if extra_fixed is None else n - 1
        for r in range(m):
            for flip in (1, -1):
                f = {v: (r + flip * v) % m for v in range(m)}
                if extra_fixed is not None:
                    f[m] = m
                maps.append(f)
        return maps

    def matches(built, wanted, n, wheel=False):
        built_sets = [canon_edges(c.edges()) for c in built]
        for f in relabelings(n, extra_fixed=wheel or None):
            mapped = [
                frozenset(tuple(sorted((f[a], f[b]))) for a, b in w)
                for w in (canon_edges(w) for w in wanted)
            ]
            if sorted(map(sorted, mapped)) == sorted(map(sorted, built_sets)):
                return True
        return False

    assert matches(pack_convex(12).cycles, REF_CONVEX_12, 12)
    assert matches(pack_convex(13).cycles, REF_CONVEX_13, 13)
    assert matches(pack_wheel(14).cycles, REF_WHEEL_14, 14, wheel=True)
    elapsed = time.time() - t0
    report("7 reference packings reproduced (n=12, n=13 convex; n=14 wheel)", True, elapsed)
