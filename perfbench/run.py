#!/usr/bin/env python3
"""Benchmark entry point: one workload per process.

Usage (from the repository root)::

    python3 perfbench/run.py --workload bitexact --seed 1 --seconds 30 --trace 0

Workloads: ``bitexact``, ``faults``, ``retrain`` (see
:mod:`perfbench.workloads`).  ``--trace 0`` prints the end-to-end metrics,
``--trace 1`` the per-layer metrics (see :mod:`perfbench.metrics`).  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Run records, manifests and Chrome
traces go to ``perfbench/out/``.
"""

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("bitexact", "faults", "retrain")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="length of the timed phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be non-negative and --seconds positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: program source not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # The program source and the root replace this script's directory on the
    # path, so the package's module names cannot shadow other modules.
    if sys.path and Path(sys.path[0] or ".").resolve() == ROOT / "perfbench":
        del sys.path[0]
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    from perfbench import environment

    environment.prepare()  # before anything imports numpy

    from perfbench.runner import run

    return run(ROOT, args.workload, args.seed, args.seconds, bool(args.trace), STARTED)


if __name__ == "__main__":
    sys.exit(main())
