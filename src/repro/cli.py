"""Command-line interface: regenerate any of the paper's tables from a shell.

Usage (after ``pip install -e .``):

    python -m repro table1                 # multiplier MSE (Table 1)
    python -m repro table2                 # adder MSE (Table 2)
    python -m repro hardware               # power / energy / area (Table 3 bottom)
    python -m repro hardware --raw         # same, without the 8-bit anchoring
    python -m repro accuracy --quick       # misclassification rates (Table 3 top)
    python -m repro activity               # simulated switching activity + power
    python -m repro lint                   # static analysis of builder netlists
    python -m repro faults                 # fault-injection degradation sweep
    python -m repro claims                 # headline-claim summary

``lint`` runs the rule-based static analyzer (:mod:`repro.netlist.lint`)
over every builder circuit in
:data:`repro.netlist.circuits.BUILDER_CATALOG` (or a ``--circuit``
selection) and exits non-zero when findings at or above ``--fail-on``
(default ``error``) are present -- the CI gate that keeps the Table 3
netlists structurally sound.  ``--verbose`` adds info-level findings plus
the fanout histogram and critical-path statistics.

The accuracy experiment honours the same environment variables as the
benchmark suite (REPRO_TRAIN_SIZE, REPRO_TEST_SIZE, REPRO_EVAL_IMAGES).  Its
stochastic rows are scored bit-exactly, on every test image unless
REPRO_EVAL_IMAGES caps them: the stochastic convolution streams in
byte-budgeted patch tiles, so full-test-set runs stay in bounded memory, and
the engines take the exact count-domain shortcut whenever it applies.
Stochastic streams are always simulated as packed 64-bit words.
``activity`` runs the PrimeTime-style switching-annotated power
estimate: it simulates the Table 3 stochastic dot-product netlist against a
random bit-stream trace and rolls the per-net toggle counts into power;
``--traces K`` stacks K stimulus sets (default 1) on a leading axis and
covers them all with one batched word-parallel simulation.
``hardware --activity-traces N`` replaces the assumed activity factor of the
stochastic power model by one measured the same way.

``faults`` runs the deterministic fault-injection degradation sweep
(:mod:`repro.faults.sweep`): it convolves synthetic digits through the
stochastic first layer under seeded per-bit stream flips and compares the
sign-map degradation against a matched binary fixed-point baseline whose
accumulator words are upset at the same per-bit per-cycle rate.  The curve
prints as a table and merges into a JSON artifact (``--output``, default
``BENCH_faults.json``) unless ``--no-artifact`` is given.  ``--quick``
selects the small smoke geometry used by CI; on ``faults`` and ``accuracy``
it fills only the flags the user did not pass.
"""

from __future__ import annotations

import argparse
from typing import Optional, Sequence

from .eval import (
    AccuracyConfig,
    format_headline_claims,
    format_table1,
    format_table2,
    format_table3_accuracy,
    format_table3_hardware,
    run_table1,
    run_table2,
    run_table3_accuracy,
    run_table3_hardware,
    summarize,
)

__all__ = ["build_parser", "main"]


def _parse_precisions(text: str) -> tuple:
    try:
        values = tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"invalid precision list {text!r}") from exc
    if not values or any(v < 2 for v in values):
        raise argparse.ArgumentTypeError("precisions must be integers >= 2")
    return values


def build_parser() -> argparse.ArgumentParser:
    """Build the top-level argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce the tables of Lee et al., DATE 2017.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    table1 = sub.add_parser("table1", help="stochastic multiplier MSE (Table 1)")
    table1.add_argument(
        "--precisions", type=_parse_precisions, default=(8, 4),
        help="comma-separated precisions, e.g. 8,4",
    )

    table2 = sub.add_parser("table2", help="stochastic adder MSE (Table 2)")
    table2.add_argument("--precisions", type=_parse_precisions, default=(8, 4))

    hardware = sub.add_parser("hardware", help="power / energy / area (Table 3 bottom)")
    hardware.add_argument("--precisions", type=_parse_precisions, default=(8, 7, 6, 5, 4, 3, 2))
    hardware.add_argument(
        "--raw", action="store_true",
        help="report the raw gate-count model instead of anchoring to the paper's 8-bit results",
    )
    hardware.add_argument(
        "--activity-traces", type=int, default=0, metavar="N",
        help="measure the SC engine's switching activity from a batched "
             "netlist simulation over N random input traces instead of "
             "assuming the technology default (measured independently at "
             "every requested precision)",
    )

    accuracy = sub.add_parser("accuracy", help="misclassification rates (Table 3 top)")
    accuracy.add_argument("--precisions", type=_parse_precisions, default=None,
                          help="default 8,6,4,3,2 (8,4,2 with --quick)")
    accuracy.add_argument("--train-size", type=int, default=None,
                          help="default REPRO_TRAIN_SIZE or the dataset's (400 with --quick)")
    accuracy.add_argument("--test-size", type=int, default=None,
                          help="default REPRO_TEST_SIZE or the dataset's (120 with --quick)")
    accuracy.add_argument("--epochs", type=int, default=None,
                          help="baseline training epochs (default 4, 2 with --quick)")
    accuracy.add_argument("--retrain-epochs", type=int, default=None,
                          help="default 3 (1 with --quick)")
    accuracy.add_argument("--quick", action="store_true",
                          help="small smoke-test configuration for the flags not passed")
    accuracy.add_argument("--no-retrain-row", action="store_true",
                          help="also report the no-retraining ablation row")

    activity = sub.add_parser(
        "activity",
        help="switching-activity power simulation of the Table 3 SC engine netlist",
    )
    activity.add_argument(
        "--precision", type=int, default=6,
        help="stream precision: simulates 2**precision cycles with a "
             "(precision+1)-bit counter",
    )
    activity.add_argument("--taps", type=int, default=25, help="dot-product tap count")
    activity.add_argument("--adder", choices=("tff", "mux"), default="tff")
    activity.add_argument("--seed", type=int, default=0, help="stimulus RNG seed")
    activity.add_argument(
        "--traces", type=int, default=1, metavar="K",
        help="number of stimulus trace sets, simulated in one batched "
             "word-parallel run (default 1)",
    )

    lint_cmd = sub.add_parser(
        "lint",
        help="static analysis of the gate-level builder netlists",
    )
    lint_cmd.add_argument(
        "--circuit", action="append", default=None, metavar="NAME",
        help="lint only this builder circuit (repeatable; default: all; "
             "see `repro lint --list` for names)",
    )
    lint_cmd.add_argument(
        "--list", action="store_true",
        help="list the available builder circuits and exit",
    )
    lint_cmd.add_argument(
        "--fail-on", choices=("error", "warning", "info", "never"),
        default="error",
        help="exit non-zero when findings at or above this severity are "
             "present (default: error)",
    )
    lint_cmd.add_argument(
        "--verbose", "-v", action="store_true",
        help="also print info-level findings, the fanout histogram and the "
             "critical path",
    )

    faults_cmd = sub.add_parser(
        "faults",
        help="fault-injection degradation sweep (SC conv layer vs binary baseline)",
    )
    faults_cmd.add_argument(
        "--rates", type=_parse_rates, default=None, metavar="R1,R2,...",
        help="comma-separated per-bit per-cycle upset rates in [0, 1] "
             "(default: 0,1e-4,1e-3,1e-2,1e-1)",
    )
    faults_cmd.add_argument(
        "--precision", type=int, default=8,
        help="stream precision: 2**precision-bit streams and a matched "
             "binary datapath (default 8)",
    )
    faults_cmd.add_argument("--images", type=int, default=None,
                            help="synthetic digit images convolved (default 6)")
    faults_cmd.add_argument("--filters", type=int, default=None,
                            help="convolution kernels (default 8)")
    faults_cmd.add_argument("--kernel", type=int, default=5,
                            help="square kernel side (default 5)")
    faults_cmd.add_argument("--trials", type=int, default=None,
                            help="independent fault seeds averaged per rate (default 2)")
    faults_cmd.add_argument("--seed", type=int, default=0,
                            help="master seed (dataset, kernels, fault seeds)")
    faults_cmd.add_argument(
        "--output", default="BENCH_faults.json", metavar="PATH",
        help="JSON artifact the curve is merged into (default BENCH_faults.json)",
    )
    faults_cmd.add_argument(
        "--no-artifact", action="store_true",
        help="print the table only; do not write the JSON artifact",
    )
    faults_cmd.add_argument(
        "--quick", action="store_true",
        help="small smoke-test geometry for the flags not passed "
             "(3 rates, 2 images, 4 filters, 1 trial)",
    )

    claims = sub.add_parser("claims", help="headline-claim summary (hardware only)")
    claims.add_argument("--raw", action="store_true")
    return parser


#: What a full ``accuracy`` run (False) and ``--quick`` (True) use for each
#: flag the user did not pass; ``None`` sizes defer to REPRO_*_SIZE.
_ACCURACY_PRESETS = {
    False: dict(precisions=(8, 6, 4, 3, 2), train_size=None, test_size=None,
                baseline_epochs=4, retrain_epochs=3),
    True: dict(precisions=(8, 4, 2), train_size=400, test_size=120,
               baseline_epochs=2, retrain_epochs=1),
}


def _fill(passed: dict, preset: dict) -> dict:
    """``passed`` with every flag the user did not pass (``None``) taken from ``preset``."""
    return {key: preset[key] if value is None else value for key, value in passed.items()}


def _parse_rates(text: str) -> tuple:
    from .faults.sweep import parse_rates

    try:
        return parse_rates(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _run_activity(args: argparse.Namespace) -> None:
    """Simulate the SC engine netlist and print the activity-annotated power."""
    import numpy as np

    from .hw.technology import DEFAULT_TECH
    from .netlist import build_sc_dot_product, estimate_power, simulate_batch

    if args.precision < 2:
        raise SystemExit("repro: error: precision must be at least 2")
    if args.taps < 2:
        raise SystemExit("repro: error: taps must be at least 2")
    if args.traces < 1:
        raise SystemExit("repro: error: traces must be at least 1")
    cycles = 1 << args.precision
    netlist = build_sc_dot_product(args.taps, args.precision + 1, adder=args.adder)
    rng = np.random.default_rng(args.seed)
    # A (1, cycles) draw holds the same bits as a (cycles,) draw, so one
    # batched run covers every --traces value.
    stimulus = {
        net: rng.integers(0, 2, (args.traces, cycles), dtype=np.int64).astype(np.uint8)
        for net in netlist.primary_inputs
    }
    result = simulate_batch(netlist, stimulus, strict=True)
    trace_note = f" x {args.traces} traces (batched)" if args.traces > 1 else ""
    report = estimate_power(
        netlist, DEFAULT_TECH.sc_clock_mhz, simulation=result
    )
    print(f"netlist: {netlist.name} ({len(netlist.instances)} cells), "
          f"{cycles} cycles{trace_note}")
    print(f"total toggles:      {result.total_toggles()}")
    print(f"average activity:   {result.average_activity():.4f} toggles/cycle/net")
    if args.traces > 1:
        per_trace = result.average_activity_per_trace()
        print(f"activity spread:    {per_trace.min():.4f} .. {per_trace.max():.4f} "
              "across traces")
    print(f"dynamic power:      {report.dynamic_mw * 1e3:.2f} uW at "
          f"{report.frequency_mhz:.0f} MHz")
    print(f"leakage power:      {report.leakage_mw * 1e3:.2f} uW")
    print(f"total power:        {report.total_mw * 1e3:.2f} uW")


def _run_lint(args: argparse.Namespace) -> int:
    """Lint the builder netlists; return the process exit code."""
    from .netlist import BUILDER_CATALOG, lint

    if args.list:
        for name in sorted(BUILDER_CATALOG):
            print(name)
        return 0

    names = sorted(BUILDER_CATALOG) if args.circuit is None else args.circuit
    unknown = [name for name in names if name not in BUILDER_CATALOG]
    if unknown:
        raise SystemExit(
            f"repro: error: unknown circuit(s) {unknown}; "
            f"available: {sorted(BUILDER_CATALOG)}"
        )

    severity_rank = {"error": 0, "warning": 1, "info": 2}
    fail_rank = severity_rank.get(args.fail_on)  # None for "never"
    failed = False
    totals = {"error": 0, "warning": 0, "info": 0}
    for name in names:
        report = lint(BUILDER_CATALOG[name]())
        print(report.format(verbose=args.verbose))
        for severity, count in report.counts().items():
            totals[severity] += count
        if fail_rank is not None and any(
            severity_rank[f.severity] <= fail_rank for f in report.findings
        ):
            failed = True
    print(
        f"linted {len(names)} netlist(s): {totals['error']} error(s), "
        f"{totals['warning']} warning(s), {totals['info']} info"
    )
    if failed:
        print(f"repro lint: findings at or above --fail-on={args.fail_on}")
        return 1
    return 0


def _fault_sweep_config(args: argparse.Namespace):
    from .faults.sweep import DEFAULT_RATES, FaultSweepConfig

    presets = {
        False: dict(rates=DEFAULT_RATES, images=6, filters=8, trials=2),
        True: dict(rates=(0.0, 1e-3, 1e-2), images=2, filters=4, trials=1),
    }
    passed = dict(rates=args.rates, images=args.images, filters=args.filters, trials=args.trials)
    try:
        return FaultSweepConfig(
            seed=args.seed,
            precision=args.precision,
            kernel=args.kernel,
            **_fill(passed, presets[args.quick]),
        )
    except ValueError as exc:
        raise SystemExit(f"repro: error: {exc}") from exc


def _run_faults(args: argparse.Namespace) -> int:
    """Run the fault-injection degradation sweep; return the exit code."""
    from pathlib import Path

    from .faults.sweep import format_fault_sweep, run_fault_sweep, write_artifact

    result = run_fault_sweep(_fault_sweep_config(args))
    print(format_fault_sweep(result))
    if not args.no_artifact:
        path = Path(args.output)
        write_artifact(result, path)
        print(f"wrote {path}")
    return 0


def _accuracy_config(args: argparse.Namespace) -> AccuracyConfig:
    passed = dict(
        precisions=args.precisions,
        train_size=args.train_size,
        test_size=args.test_size,
        baseline_epochs=args.epochs,
        retrain_epochs=args.retrain_epochs,
    )
    try:
        return AccuracyConfig(
            include_no_retrain=args.no_retrain_row,
            **_fill(passed, _ACCURACY_PRESETS[args.quick]),
        )
    except ValueError as exc:
        # e.g. an unusable REPRO_* environment setting: fail with the same
        # clean message style as other flag errors, before any training.
        raise SystemExit(f"repro: error: {exc}") from exc


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)

    if args.command == "table1":
        print(format_table1(run_table1(precisions=args.precisions)))
    elif args.command == "table2":
        print(format_table2(run_table2(precisions=args.precisions)))
    elif args.command == "hardware":
        if args.activity_traces < 0:
            raise SystemExit("repro: error: --activity-traces must be non-negative")
        result = run_table3_hardware(
            precisions=args.precisions,
            calibrate=not args.raw,
            activity_traces=args.activity_traces,
        )
        if result.measured_activity_by_precision is not None:
            per_precision = ", ".join(
                f"{p}b: {a:.4f}"
                for p, a in sorted(
                    result.measured_activity_by_precision.items(), reverse=True
                )
            )
            print(f"measured SC activity over {args.activity_traces} traces "
                  f"(toggles/cycle/net, per precision): {per_precision}")
        print(format_table3_hardware(result))
    elif args.command == "accuracy":
        result = run_table3_accuracy(_accuracy_config(args))
        print(format_table3_accuracy(result))
    elif args.command == "activity":
        _run_activity(args)
    elif args.command == "lint":
        return _run_lint(args)
    elif args.command == "faults":
        return _run_faults(args)
    elif args.command == "claims":
        hardware = run_table3_hardware(calibrate=not args.raw)
        print(format_headline_claims(summarize(hardware)))
    else:  # pragma: no cover - argparse enforces the choices
        return 2
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
