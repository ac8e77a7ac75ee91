"""What one round of each workload does, its set-up, and its checks.

A round is one fixed list of operations whose inputs come from the round's
seed.  Every operation is checked: built packings against the independent
reference in `gate`, CLI verify against its exit code and verdict, and the
exhaustive oracle against the known optimum.  A check that disagrees, or an
exception from the program, marks the operation incorrect; only a pack that
hits its time limit marks it failed.
"""

from __future__ import annotations

import contextlib
import gc
import io
import random
import signal
import time
import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path

from hcpack import cli, cycles, general, geometry, instances, oracle, structured
from hcpack.geometry import Config

from gate import check_packing, guaranteed
from tracer import OpTimeout

# Sizes per workload.  "quick" is what a benchmark run measures: small
# enough that a run holds many rounds and no pack hits its limit today.
# "full" holds the target sizes, including general n = 100 and 128, where
# many packs do not finish within the limit today and count as failed.
SIZES = {
    "general": {"quick": {"general": (20, 24, 28)}, "full": {"general": (64, 100, 128)}},
    "structured": {
        "quick": {"convex": (96, 160), "wheel": (32, 40)},
        "full": {"convex": (96, 192), "wheel": (48, 64)},
    },
    "check": {
        "quick": {"convex": (128,), "wheel": (32,), "general": (32,)},
        "full": {"convex": (192,), "wheel": (64,), "general": (100,)},
    },
}
# Exhaustive oracle inputs on `check`, with their known optimum.
ORACLE_CASES = (("convex", 11, 3), ("wheel", 10, 3))
# Stages whose allocations `probing_memory` traces.  Generation and the
# oracle are left out: traced, they run about ten times slower.
MEMORY_STAGES = ("pack", "verify")
# Seconds one pack may take before it counts as failed and is charged this.
PACK_LIMIT = {"quick": 20.0, "full": 60.0}
# Draws tried per set-up file before the run gives up.  Only the --full
# general n = 100 file needs more than one: its packs can time out.
SETUP_DRAWS = 5
# Small draws that warm every code path during set-up.
WARMUP = {"general": (("general", 16),), "structured": (("convex", 24), ("wheel", 16)), "check": ()}


@dataclass
class Op:
    kind: str  # the same for every round's op at this position
    label: str = ""
    stages: dict = field(default_factory=dict)  # stage name -> seconds
    spans: dict = field(default_factory=dict)  # stage name -> (start, end)
    cycles: int = 0
    bound: int = 0
    failed: str = ""  # set only when a pack hits its time limit
    problems: list = field(default_factory=list)  # any entry: incorrect
    alloc_peak: int = 0  # bytes; peak allocation of a probed stage

    def __post_init__(self):
        self.label = self.label or self.kind

    @contextlib.contextmanager
    def timed(self, stage: str):
        """Time the block as `stage`.  Inside `probing_memory()`, pack and
        verify stages also record the peak memory they allocate."""
        probe = _probing and stage in MEMORY_STAGES
        if probe:
            gc.collect()  # resets the collector, so the peak repeats run to run
            tracemalloc.start()
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self.stages[stage], self.spans[stage] = end - start, (start, end)
            if probe:
                self.alloc_peak = max(self.alloc_peak, tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()


_probing = False


@contextlib.contextmanager
def probing_memory():
    """Record `Op.alloc_peak` for the ops run inside the block.  The
    tracing slows the probed stages several-fold, so their times are not
    used."""
    global _probing
    _probing = True
    try:
        yield
    finally:
        _probing = False


def _no_tick() -> None:
    pass


def _raise_timeout(signum, frame):
    raise OpTimeout("pack time limit hit")


@contextlib.contextmanager
def time_limit(seconds: float):
    previous = signal.signal(signal.SIGALRM, _raise_timeout)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def _pack(config: str, ps, n: int):
    if config == "convex":
        return structured.pack_convex(n)
    if config == "wheel":
        return structured.pack_wheel(n)
    return general.pack_general_detailed(ps).packing


def pipeline(config: str, n: int, seed: int, limit: float, limiter=time_limit, tick=_no_tick):
    """generate -> PointSet -> pack -> verify_packing, gated.

    `limiter(limit)` bounds the pack; on a hit the pack is charged `limit`.
    `tick()` runs between stages.  Returns the op record, the instance and
    the packing (None on failure).
    """
    op = Op(f"{config} n={n}", f"{config} n={n} seed={seed}")
    inst = None
    try:
        tick()
        with op.timed("generate"):
            inst = instances.generate(Config(config), n, seed)
            ps = inst.to_point_set()
        tick()
        with op.timed("pack"), limiter(limit):
            packing = _pack(config, ps, n)
        tick()
        with op.timed("verify"):
            report = cycles.verify_packing(packing.cycles, n, geometry.oracle_for(ps))
        tick()
    except OpTimeout:
        op.stages["pack"] = limit
        op.failed = "timeout"
        return op, inst, None
    except Exception as exc:  # a program error makes this op incorrect
        op.problems.append(f"raised {type(exc).__name__}: {exc}")
        return op, inst, None
    orders = [c.order for c in packing.cycles]
    op.cycles, op.bound = len(orders), guaranteed(config, n)
    op.problems = check_packing(inst.points, config, orders)
    if not report["ok"]:
        op.problems.append("verify_packing rejected the packing")
    return op, inst, packing


def _cli_verify(instance: Path, packing: Path) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["verify", "--instance", str(instance), "--packing", str(packing)])
    return code, out.getvalue()


def _timed(op: Op, stage: str, tick, fn, *args, **kwargs):
    """fn(*args, **kwargs) timed as `stage` of `op`; None if it raised,
    which makes the op incorrect."""
    tick()
    try:
        with op.timed(stage):
            return fn(*args, **kwargs)
    except Exception as exc:
        op.problems.append(f"raised {type(exc).__name__}: {exc}")
        return None
    finally:
        tick()


class Workload:
    def __init__(self, name: str, scale: str, workdir: Path):
        self.name = name
        self.sizes = SIZES[name][scale]
        self.limit = PACK_LIMIT[scale]
        self.workdir = workdir
        self.files: list = []  # (instance path, packing path, cycles, bound)
        self.oracle_inputs: list = []  # (instance, point set, known optimum)

    def setup(self, seed: int, tick=_no_tick) -> None:
        """Build the fixed inputs (check) and warm every code path; `tick`
        is passed to `pipeline`."""
        rng = random.Random(f"setup:{self.name}:{seed}")
        for config, n in WARMUP[self.name]:
            op, _, _ = pipeline(config, n, rng.randrange(2**31), self.limit, tick=tick)
            if op.failed or op.problems:
                raise RuntimeError(f"warm-up {op.label} failed: {op.failed or op.problems}")
        if self.name != "check":
            return
        self.files, self.oracle_inputs = [], []
        for config, sizes in self.sizes.items():
            for n in sizes:
                # a file needs a packing: a draw the packer cannot finish
                # (general n = 100 can time out) is reported and replaced
                for _ in range(SETUP_DRAWS):
                    op, inst, packing = pipeline(config, n, rng.randrange(2**31), self.limit, tick=tick)
                    if op.problems:
                        raise RuntimeError(f"set-up {op.label} is incorrect: {op.problems}")
                    if not op.failed:
                        break
                    print(f"set-up draw failed, drawing again: {op.label}: {op.failed}", flush=True)
                else:
                    raise RuntimeError(f"set-up found no packable {config} n={n} draw")
                ipath = self.workdir / f"{config}{n}.json"
                ppath = self.workdir / f"{config}{n}.pack.json"
                inst.save(str(ipath))
                pf = instances.PackingFile(inst.digest(), [list(c.order) for c in packing.cycles])
                pf.save(str(ppath))
                self.files.append((ipath, ppath, op.cycles, op.bound))
        # negative control: a packing that repeats a cycle must FAIL with exit 1
        ipath, ppath, _, _ = self.files[-1]
        bad = instances.PackingFile.load(str(ppath))
        bad.cycles.append(bad.cycles[0])
        bad_path = self.workdir / "repeated.pack.json"
        bad.save(str(bad_path))
        tick()
        code, text = _cli_verify(ipath, bad_path)
        tick()
        if code != 1 or "FAIL" not in text.splitlines()[-1]:
            raise RuntimeError(f"verify accepted a repeated cycle (exit {code})")
        for config, n, best in ORACLE_CASES:
            inst = instances.generate(Config(config), n, rng.randrange(2**31))
            self.oracle_inputs.append((inst, inst.to_point_set(), best))

    def round(self, round_seed: int, limiter=time_limit, tick=_no_tick):
        """Yield each operation of one round as it completes; `limiter` and
        `tick` are passed to `pipeline`."""
        rng = random.Random(round_seed)
        if self.name != "check":
            for config, sizes in self.sizes.items():
                for n in sizes:
                    yield pipeline(config, n, rng.randrange(2**31), self.limit, limiter, tick)[0]
            return
        for ipath, ppath, ncycles, bound in self.files:
            op = Op(f"verify {ipath.name}", cycles=ncycles, bound=bound)
            verdict = _timed(op, "verify", tick, _cli_verify, ipath, ppath)
            if verdict is not None and (verdict[0] != 0 or verdict[1].splitlines()[-1:] != ["PASS"]):
                op.problems.append(f"verify exited {verdict[0]}: {verdict[1].splitlines()[-1:]}")
            yield op
        for inst, ps, best in self.oracle_inputs:
            n = len(ps)
            op = Op(f"oracle {inst.config} n={n}", bound=best)
            report = _timed(op, "oracle", tick, oracle.max_packing_exact, ps, max_n=n)
            if report is not None:
                orders = [c.order for c in report.witness.cycles]
                op.cycles = len(orders)
                if report.max_packing_size != best:
                    op.problems.append(f"oracle says {report.max_packing_size}, optimum is {best}")
                op.problems += check_packing(inst.points, inst.config, orders)
            yield op
