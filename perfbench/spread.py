#!/usr/bin/env python3
"""Run one workload on several seeds and report each metric's run-to-run spread.

Usage (from the repository root)::

    python3 perfbench/spread.py --workload faults --runs 10

Each run is a fresh ``perfbench/run.py`` process with ``--trace 0`` and the
``run_seconds`` of ``BENCHMARK.json``.  For every end-to-end metric it
prints the median over the runs and the quartile spread (first to third
quartile as a share of the median); a spread under a third of the metric's
bound is the steadiness target, and only ``setup_s`` is exempt from the
spread check.  Runs are sequential, so they never compete for the CPU.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.stats import quartile_spread  # noqa: E402


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description="Run-to-run spread of one workload.")
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args(argv)

    values = {m["name"]: [] for m in spec["end_to_end"]}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        cmd = [sys.executable, "perfbench/run.py", "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"]
        start = time.perf_counter()
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        wall = time.perf_counter() - start
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            return done.returncode
        result = json.loads(done.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: {wall:.1f} s, correct={result['correct']}, "
              f"failed={result['failed']}/{result['attempted']}", flush=True)
        for name in values:
            values[name].append(result["metrics"][name]["value"])

    steady = True
    for m in spec["end_to_end"]:
        series = values[m["name"]]
        spread = quartile_spread(series)
        ok = m["name"] == "setup_s" or spread < m["bound"] / 3
        steady &= ok
        print(f"{m['name']:24s} median {statistics.median(series):12.5g} {m['unit']:5s} "
              f"spread {spread:7.2%} bound {m['bound']:.0%} {'ok' if ok else 'WIDE'}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
