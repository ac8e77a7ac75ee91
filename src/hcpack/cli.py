"""Command-line surface: generate, pack, verify, oracle, render.

Exit codes: 0 success, 1 verification failure, 2 malformed input or an
``--out`` path that cannot be written, 3 construction or packing failure,
or any other package error, 4 an internal error (an unexpected exception).
A command returns its own code only for success, a failed verification
or an unwritable ``--out``; every other error escapes to `main`, which maps
it to its code in one table.  Exit 1 means only that a packing failed
verification.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import traceback
from itertools import chain
from pathlib import Path
from typing import List, Optional

from .cycles import HamCycle, verify_packing
from .errors import DegenerateInput, HcpackError, InvalidN, PackingIncomplete, TooLarge
from .general import pack_general_detailed
from .geometry import Config, PointSet, oracle_for, wheel_relabeling
from .instances import InstanceFile, PackingFile, generate
from .oracle import max_packing_exact
from .render import render_svg
from .structured import pack_convex, pack_wheel

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_INPUT = 2
EXIT_CONSTRUCT = 3
EXIT_INTERNAL = 4


def _load_instance(path: str) -> tuple[InstanceFile, PointSet]:
    inst = InstanceFile.load(path)
    try:
        ps = inst.to_point_set()
    except HcpackError as exc:
        raise DegenerateInput(f"{path}: {exc}") from exc
    return inst, ps


def _packing_cycles(pf: PackingFile, n: int) -> List[HamCycle]:
    """The file's cycles, each a vertex-distinct cycle over indices 0..n-1;
    its removed edges must stay in range too."""
    try:
        cycles = [HamCycle(tuple(c)) for c in pf.cycles]
    except ValueError as exc:
        raise DegenerateInput(str(exc)) from exc
    removed = [*chain.from_iterable(chain.from_iterable(pf.removed_edges))]
    in_range = all(0 <= min(c.order) and max(c.order) < n for c in cycles) and (
        not removed or 0 <= min(removed) and max(removed) < n
    )
    if not in_range:
        raise DegenerateInput("packing references an index out of range")
    return cycles


def _write_out(path: str, save) -> bool:
    """Run `save(path)`; on an OSError report it on stderr and return False."""
    try:
        save(path)
    except OSError as exc:
        print(f"error: cannot write {path}: {exc.strerror or exc}", file=sys.stderr)
        return False
    return True


def _guaranteed_cycles(config: Config, n: int) -> int:
    """Cycles the packer guarantees: floor(n/3) convex, floor((n-1)/3)
    wheel, k-1 for general n = 2^k + h."""
    if config is Config.CONVEX:
        return n // 3
    if config is Config.WHEEL:
        return (n - 1) // 3
    return n.bit_length() - 2


def cmd_generate(args) -> int:
    try:
        inst = generate(Config(args.config), args.n, args.seed)
    except InvalidN as exc:  # a bad --n is malformed input
        raise DegenerateInput(str(exc)) from exc
    if not _write_out(args.out, inst.save):
        return EXIT_INPUT
    print(f"wrote {args.out} ({args.config}, n={args.n})")
    return EXIT_OK


def cmd_pack(args) -> int:
    inst, ps = _load_instance(getattr(args, "in"))
    n = len(ps)
    removed: List[List[tuple[int, int]]] = []
    if ps.config is Config.CONVEX:
        cycles = [list(c.order) for c in pack_convex(n).cycles]
    elif ps.config is Config.WHEEL:
        _, to_file = wheel_relabeling(n, ps.center_index)
        cycles = [[to_file[v] for v in c.order] for c in pack_wheel(n).cycles]
    else:
        result = pack_general_detailed(ps)
        cycles = [list(c.order) for c in result.packing.cycles]
        removed = [[] for _ in cycles]
        for ci, moves in enumerate(result.join_log):
            for mv in moves:
                removed[ci].extend(mv.removed_edges())
    pf = PackingFile(instance_hash=inst.digest(), cycles=cycles, removed_edges=removed)
    if not _write_out(args.out, pf.save):
        return EXIT_INPUT
    print(f"wrote {args.out} ({len(cycles)} cycles)")
    return EXIT_OK


def cmd_verify(args) -> int:
    inst, ps = _load_instance(args.instance)
    pf = PackingFile.load(args.packing)
    n = len(ps)
    guaranteed = _guaranteed_cycles(ps.config, n)
    report: dict = {
        "n": n,
        "config": ps.config.value,
        "cycle_count": len(pf.cycles),
        "guaranteed": guaranteed,
        "meets_guarantee": len(pf.cycles) >= guaranteed,
    }
    if pf.instance_hash != inst.digest():
        report["hash_match"] = False
        report["ok"] = False
        _emit_verify(report, args.json)
        return EXIT_VERIFY
    report["hash_match"] = True
    cycles = _packing_cycles(pf, n)
    report.update(verify_packing(cycles, n, oracle_for(ps)))
    report["ok"] = report["ok"] and bool(cycles)
    _emit_verify(report, args.json)
    return EXIT_OK if report["ok"] else EXIT_VERIFY


def _emit_verify(report: dict, as_json: bool) -> None:
    if as_json:
        print(json.dumps(report, indent=2))
        return
    print(f"instance: n={report['n']} config={report['config']}")
    if not report.get("hash_match", True):
        print("FAIL: packing digest does not match this instance")
        return
    for i, rc in enumerate(report["cycles"]):
        status = "ok" if rc["hamiltonian"] and rc["one_plane"] else "FAIL"
        print(
            f"  cycle {i}: hamiltonian={rc['hamiltonian']} "
            f"max_crossings={rc['max_crossings']} [{status}]"
        )
    print(f"  pairwise edge-disjoint: {report['all_disjoint']}")
    print(
        f"  cycles: {report['cycle_count']} of {report['guaranteed']} guaranteed "
        f"(meets guarantee: {report['meets_guarantee']})"
    )
    print("PASS" if report["ok"] else "FAIL")


def cmd_oracle(args) -> int:
    _inst, ps = _load_instance(getattr(args, "in"))
    rep = max_packing_exact(ps, max_n=args.max_n)
    print(
        json.dumps(
            {
                "n": rep.n,
                "total_ham_cycles": rep.total_ham_cycles,
                "one_plane_count": rep.one_plane_count,
                "max_packing_size": rep.max_packing_size,
                "witness": [list(c.order) for c in rep.witness.cycles],
                "search_nodes": rep.search_nodes,
            },
            indent=2,
        )
    )
    return EXIT_OK


def cmd_render(args) -> int:
    inst, ps = _load_instance(args.instance)
    pf = PackingFile.load(args.packing)
    cycles = _packing_cycles(pf, len(ps))
    if pf.instance_hash != inst.digest():
        raise DegenerateInput("packing digest does not match this instance")
    svg = render_svg(ps, cycles, pf.removed_edges or None)
    if not _write_out(args.out, lambda path: Path(path).write_text(svg, encoding="utf-8")):
        return EXIT_INPUT
    print(f"wrote {args.out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="hcpack",
        description="Pack and verify edge-disjoint 1-plane Hamiltonian cycles.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="write a point-set instance file")
    g.add_argument("--config", choices=[c.value for c in Config], required=True)
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--seed", type=int, default=None)
    g.add_argument("--out", required=True)

    k = sub.add_parser("pack", help="construct a packing for an instance")
    k.add_argument("--in", required=True)
    k.add_argument("--out", required=True)

    v = sub.add_parser("verify", help="verify a packing against its instance")
    v.add_argument("--instance", required=True)
    v.add_argument("--packing", required=True)
    v.add_argument("--json", action="store_true")

    o = sub.add_parser("oracle", help="exhaustive packing bound at small n")
    o.add_argument("--in", required=True)
    o.add_argument("--max-n", type=int, default=None,
                   help="exhaustive cap (default 8)")

    r = sub.add_parser("render", help="draw a packing as SVG")
    r.add_argument("--instance", required=True)
    r.add_argument("--packing", required=True)
    r.add_argument("--out", required=True)
    return p


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The one parser of this process: parsing leaves it unchanged."""
    return build_parser()


def main(argv: Optional[List[str]] = None) -> int:
    args = _parser().parse_args(argv)
    try:
        # looked up by name on each call, so a replaced `cmd_*` is the one run
        return globals()[f"cmd_{args.command}"](args)
    except (DegenerateInput, TooLarge) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except PackingIncomplete as exc:
        print(
            f"packing incomplete at level {exc.level}: {exc} "
            f"({len(exc.cycles)} cycles found)",
            file=sys.stderr,
        )
        return EXIT_CONSTRUCT
    except HcpackError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_CONSTRUCT
    except Exception as exc:  # not BaseException: interrupts still propagate
        traceback.print_exc()
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
