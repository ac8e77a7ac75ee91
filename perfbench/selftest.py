"""Counter self-test: two traced runs of one seed must count the same work.

    python3 perfbench/selftest.py --seed 1 [--workload general ...]

Runs `run.py --trace 1` twice per workload in fresh interpreters and
compares every per-layer metric that is not a time.  Exits 1 on any
difference, so counts can be cited across commits as well as times.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def traced_counters(workload: str, seed: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, check=True, timeout=900,
    )
    metrics = json.loads(out.stdout.splitlines()[-1])["metrics"]
    return {k: v["value"] for k, v in metrics.items() if v["unit"] != "s"}


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--workload", nargs="+", default=["general", "structured", "check"])
    args = p.parse_args()
    ok = True
    for workload in args.workload:
        first, second = traced_counters(workload, args.seed), traced_counters(workload, args.seed)
        diff = {k: (first[k], second[k]) for k in first if first[k] != second[k]}
        ok = ok and not diff
        print(f"{workload}: {len(first)} counters, {'identical' if not diff else f'DIFFER {diff}'}")
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
