"""hcpack benchmark: generate -> pack -> verify, checked and timed.

Run one workload as a measured run:

    python3 perfbench/run.py --workload general --seed 1 --seconds 20 --trace 0

or every workload from one process, printing each metric per workload:

    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

A measured run first probes the memory of a few untimed rounds, then
times rounds until `--seconds` have passed.  `--trace 1` replays a fixed
number of rounds twice, untraced then traced, and reports the per-layer
metrics of `Tracer.metrics`.  `--full` swaps in the target sizes (general
n = 64, 100, 128 and larger check files); no run the benchmark's bounds
were set on uses it.  The last line of standard output is one JSON
object; the exit code is 1 when any output fails its check or the
program raises.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import contextmanager
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = ("general", "structured", "check")
# A run sets up at least SETUP_REPEATS times and for at least SETUP_MIN_S
# seconds, and reports the median.
SETUP_REPEATS = 3
SETUP_MIN_S = 2.0
# Reference kernel seconds that `setup_s` is scaled to: its median on the
# 2-vCPU VM the bounds were set on.
REF_NOMINAL_S = 0.003
# Rounds whose allocations a measured run probes before it starts timing.
# General draws vary in size, so more of them are taken.
ALLOC_ROUNDS = {"general": 10, "structured": 1, "check": 1}
# Rounds a traced run replays; fixed, so its counters repeat exactly.
TRACED_ROUNDS = {"general": 20, "structured": 1, "check": 2}
# A traced pack may make this many crossing-predicate calls per second of
# its limit (about the untraced rate), and gets this much more wall time.
CROSS_CALLS_PER_S = 300_000
TRACED_SLACK = 3.0

# end-to-end metric -> the stage whose seconds it reports
STAGES = {"generate_s": "generate", "pack_s": "pack", "verify_s": "verify", "oracle_s": "oracle"}


def _import_hcpack():
    sys.path[:0] = [str(SRC), str(HERE)]
    try:
        import hcpack
    except ImportError as exc:
        sys.exit(f"error: cannot import hcpack from {SRC}: {exc}")
    if Path(hcpack.__file__).resolve().parent.parent != SRC:
        sys.exit(f"error: hcpack was imported from {hcpack.__file__}, not {SRC}")


def listed_metrics(trace: int) -> list:
    """The metric names BENCHMARK.json asks a single-workload run for."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def machine_facts() -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "loadavg": [round(x, 2) for x in os.getloadavg()],
    }


def fresh_import_s() -> float:
    """Seconds to import hcpack in a new interpreter, timed inside it."""
    code = (
        "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
        "import hcpack; print(time.perf_counter() - t)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code, str(SRC)], capture_output=True, text=True, check=True, timeout=60
    )
    return float(out.stdout)


def run_setup(wl, seed: int, speed) -> tuple[float, float]:
    """Median of repeated full set-ups, each with a fresh import of hcpack;
    the last one's inputs are kept.  Returns the median raw seconds and the
    median in seconds at the nominal speed: each set-up's seconds divided by
    the mean time of the reference kernel, sampled between its stages, times
    REF_NOMINAL_S.  Time spent sampling is left out."""
    raw, scaled = [], []
    begin = time.perf_counter()
    while len(raw) < SETUP_REPEATS or time.perf_counter() - begin < SETUP_MIN_S:
        speed.sample()
        start, spent = time.perf_counter(), speed.spent
        wl.setup(seed, tick=speed.tick)
        seconds = time.perf_counter() - start - (speed.spent - spent) + fresh_import_s()
        speed.sample()
        raw.append(seconds)
        scaled.append(seconds / speed.mean_over(start, time.perf_counter()) * REF_NOMINAL_S)
    return statistics.median(raw), statistics.median(scaled)


def alloc_rounds(wl, seed: int) -> list:
    """Untimed rounds in which each op records the peak memory its pack and
    verify stages allocate (see `workloads.probing_memory`)."""
    from workloads import probing_memory

    master = random.Random(f"alloc:{wl.name}:{seed}")
    with probing_memory():
        return [list(wl.round(master.randrange(2**63))) for _ in range(ALLOC_ROUNDS[wl.name])]


def per_kind_median(ops, seconds) -> float:
    """Sum over operation kinds of the median of `seconds(op)` within the
    kind, over the ops where it is not None: one typical round."""
    by_kind: dict = {}
    for op in ops:
        value = seconds(op)
        if value is not None:
            by_kind.setdefault(op.kind, []).append(value)
    return sum(statistics.median(v) for v in by_kind.values())


def e2e_metrics(ops: list, alloc_ops: list, setup: tuple, speed) -> dict:
    """End-to-end metrics of a measured run.  `*_ref` metrics divide each
    stage's seconds by the reference kernel's time around the stage (see
    `reference.py`), so they hold steady while the machine's speed drifts.
    Incorrect ops are left out of every time."""

    def in_ref(op, stages):
        parts = [op.stages[s] / speed.around(*op.spans[s]) for s in stages if s in op.stages]
        return sum(parts) if parts else None

    timed = [op for op in ops if not op.problems]
    out = {"setup_s": (setup[1], "s"), "setup_raw_s": (setup[0], "s")}
    out["wall_s"] = (per_kind_median(timed, lambda op: sum(op.stages.values())), "s")
    for metric, stage in STAGES.items():
        if any(stage in op.stages for op in timed):
            out[metric] = (per_kind_median(timed, lambda op: op.stages.get(stage)), "s")
    out["wall_ref"] = (per_kind_median(timed, lambda op: in_ref(op, op.stages)), "ref")
    out["verify_ref"] = (per_kind_median(timed, lambda op: in_ref(op, ["verify"])), "ref")
    out["ref_ms"] = (statistics.median(speed.values) * 1000, "ms")
    packs = [op.stages["pack"] for op in timed if "pack" in op.stages]
    if packs:
        out["pack_max_s"] = (max(packs), "s")
    out["fail_share"] = (sum(1 for op in ops if op.failed or op.problems) / len(ops), "ratio")
    done = [op for op in ops if not op.failed and not op.problems]
    bound = sum(op.bound for op in done)
    out["cycles_over_bound"] = (sum(op.cycles for op in done) / bound if bound else 0.0, "ratio")
    by_kind: dict = {}
    for op in alloc_ops:
        by_kind.setdefault(op.kind, []).append(op.alloc_peak)
    out["alloc_peak_mb"] = (max(statistics.median(v) for v in by_kind.values()) / 2**20, "MB")
    return {k: {"value": v, "unit": u} for k, (v, u) in out.items()}


def measured_run(wl, seed: int, seconds: float):
    from reference import Speedometer

    speed = Speedometer()
    setup = run_setup(wl, seed, speed)
    probed = alloc_rounds(wl, seed)
    master = random.Random(f"{wl.name}:{seed}")
    speed.sample()
    rounds = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        rounds.append(list(wl.round(master.randrange(2**63), tick=speed.tick)))
    speed.sample()
    ops = [op for r in rounds for op in r]
    alloc_ops = [op for r in probed for op in r]
    return probed + rounds, e2e_metrics(ops, alloc_ops, setup, speed)


def traced_run(wl, seed: int):
    from tracer import Tracer
    from workloads import time_limit

    wl.setup(seed)
    tracer = Tracer(cross_cap=int(wl.limit * CROSS_CALLS_PER_S))

    @contextmanager
    def traced_limit(seconds):
        with tracer.capped(), time_limit(seconds * TRACED_SLACK):
            yield

    master = random.Random(f"{wl.name}:{seed}")
    n_rounds = TRACED_ROUNDS[wl.name]
    rounds, untraced_s, traced_s = [], 0.0, 0.0
    for _ in range(n_rounds):
        round_seed = master.randrange(2**63)
        plain = list(wl.round(round_seed))
        untraced_s += sum(sum(op.stages.values()) for op in plain)
        ops = []
        with tracer.active():
            for op in wl.round(round_seed, limiter=traced_limit):
                tracer.end_op()
                ops.append(op)
        traced_s += sum(sum(op.stages.values()) for op in ops)
        rounds.append(ops)
    return rounds, tracer.metrics(traced_s - untraced_s)


def run_workload(name: str, args, workdir: Path):
    from workloads import Workload

    wl = Workload(name, "full" if args.full else "quick", workdir)
    if args.trace:
        return traced_run(wl, args.seed)
    return measured_run(wl, args.seed, args.seconds)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--full", action="store_true", help="target sizes: general n = 64, 100, 128")
    args = p.parse_args(argv)
    _import_hcpack()

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    listed = listed_metrics(args.trace)
    print(f"machine: {json.dumps(machine_facts())}", flush=True)
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    attempted = failed = 0
    correct = True
    metrics = {}
    with tempfile.TemporaryDirectory(dir=ROOT / ".bench_work") as tmp:
        for name in names:
            workdir = Path(tmp) / name
            workdir.mkdir()
            rounds, values = run_workload(name, args, workdir)
            ops = [op for r in rounds for op in r]
            attempted += len(ops)
            failed += sum(1 for op in ops if op.failed or op.problems)
            for op in ops:
                if op.problems:
                    correct = False
                    print(f"INCORRECT [{name}] {op.label}: {'; '.join(op.problems)}", flush=True)
                elif op.failed:
                    print(f"failed [{name}] {op.label}: {op.failed}", flush=True)
            print(f"[{name}] {len(rounds)} rounds, {len(ops)} ops, every one checked", flush=True)
            for metric, v in values.items():
                print(f"  {metric:<30} {v['value']:.6g} {v['unit']}", flush=True)
                if len(names) > 1:
                    metrics[f"{name}.{metric}"] = v
                elif metric in listed:
                    metrics[metric] = v
    missing = set(listed) - set(metrics) if len(names) == 1 else set()
    if missing:
        sys.exit(f"error: BENCHMARK.json lists metrics this run did not produce: {sorted(missing)}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
