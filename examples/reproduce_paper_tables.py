#!/usr/bin/env python3
"""Regenerate every table of the paper and write a paper-vs-measured report.

This is the one-shot paper-vs-measured driver: it runs Tables 1 and 2
exhaustively, the Table 3 hardware comparison, the (scaled-down) Table 3
accuracy experiment, and the headline-claim summary, then prints a markdown
report with the paper's published numbers next to the reproduction's.

Usage:
    python examples/reproduce_paper_tables.py [--quick] [--output FILE]

``--quick`` shrinks the accuracy experiment (for a smoke run); without it the
default benchmark-scale configuration is used (~10 minutes on a laptop CPU).
Environment variables REPRO_TRAIN_SIZE / REPRO_TEST_SIZE scale it up
further; the stochastic rows are scored bit-exactly on every test image
unless REPRO_EVAL_IMAGES caps them.
"""

import argparse
import time

from repro.eval import (
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
from repro.eval.table2 import ADDER_CONFIGS
from repro.hw import PAPER_TABLE3_REFERENCE
from repro.rng.sng import TABLE1_SCHEMES

PAPER_TABLE1 = {
    "shared_lfsr": {8: 2.78e-3, 4: 2.99e-3},
    "two_lfsrs": {8: 2.57e-4, 4: 1.60e-3},
    "low_discrepancy": {8: 1.28e-5, 4: 1.01e-3},
    "ramp_low_discrepancy": {8: 8.66e-6, 4: 7.21e-4},
}

PAPER_TABLE2 = {
    "old_random_lfsr": {8: 3.24e-4, 4: 5.55e-3},
    "old_random_tff": {8: 5.49e-4, 4: 5.49e-3},
    "old_lfsr_tff": {8: 1.06e-4, 4: 2.66e-3},
    "new_tff": {8: 1.91e-6, 4: 4.88e-4},
}

PAPER_TABLE3_ACCURACY = {
    "binary": {8: 0.89, 7: 0.86, 6: 0.89, 5: 0.74, 4: 0.79, 3: 0.79, 2: 1.30},
    "old_sc": {8: 2.22, 7: 3.91, 6: 1.30, 5: 1.55, 4: 1.63, 3: 2.71, 2: 4.89},
    "this_work": {8: 0.94, 7: 0.99, 6: 1.04, 5: 1.12, 4: 1.04, 3: 2.20, 2: 43.82},
}


def emit(lines, text=""):
    lines.append(text)


def report_table1(lines):
    result = run_table1(precisions=(8, 4))
    emit(lines, "## Table 1 — stochastic multiplier MSE per number-generation scheme")
    emit(lines)
    emit(lines, "| Scheme | paper 8-bit | measured 8-bit | paper 4-bit | measured 4-bit |")
    emit(lines, "|---|---|---|---|---|")
    for scheme, label in TABLE1_SCHEMES.items():
        emit(
            lines,
            f"| {label} | {PAPER_TABLE1[scheme][8]:.2e} | {result.mse[scheme][8]:.2e} "
            f"| {PAPER_TABLE1[scheme][4]:.2e} | {result.mse[scheme][4]:.2e} |",
        )
    emit(lines)
    print(format_table1(result))
    return result


def report_table2(lines):
    result = run_table2(precisions=(8, 4))
    emit(lines, "## Table 2 — stochastic adder MSE per implementation")
    emit(lines)
    emit(lines, "| Implementation | paper 8-bit | measured 8-bit | paper 4-bit | measured 4-bit |")
    emit(lines, "|---|---|---|---|---|")
    for config, label in ADDER_CONFIGS.items():
        emit(
            lines,
            f"| {label} | {PAPER_TABLE2[config][8]:.2e} | {result.mse[config][8]:.2e} "
            f"| {PAPER_TABLE2[config][4]:.2e} | {result.mse[config][4]:.2e} |",
        )
    emit(lines)
    print(format_table2(result))
    return result


def report_hardware(lines):
    result = run_table3_hardware(precisions=(8, 7, 6, 5, 4, 3, 2))
    reference = PAPER_TABLE3_REFERENCE
    emit(lines, "## Table 3 (bottom) — throughput-normalized power, energy per frame, area")
    emit(lines)
    emit(lines, "| Precision | Binary power mW (paper / measured) | SC power mW | Binary nJ/frame | SC nJ/frame | Binary mm^2 | SC mm^2 |")
    emit(lines, "|---|---|---|---|---|---|---|")
    for row in result.rows:
        p = row.precision
        emit(
            lines,
            f"| {p} | {reference['binary_power_mw'][p]:.1f} / {row.binary_power_mw:.1f} "
            f"| {reference['sc_power_mw'][p]:.1f} / {row.sc_power_mw:.1f} "
            f"| {reference['binary_energy_nj'][p]:.0f} / {row.binary_energy_nj:.0f} "
            f"| {reference['sc_energy_nj'][p]:.1f} / {row.sc_energy_nj:.1f} "
            f"| {reference['binary_area_mm2'][p]:.3f} / {row.binary_area_mm2:.3f} "
            f"| {reference['sc_area_mm2'][p]:.3f} / {row.sc_area_mm2:.3f} |",
        )
    emit(lines)
    print(format_table3_hardware(result))
    return result


def report_accuracy(lines, quick):
    if quick:
        config = AccuracyConfig(
            precisions=(8, 4, 2),
            train_size=500,
            test_size=150,
            baseline_epochs=2,
            retrain_epochs=1,
        )
    else:
        config = AccuracyConfig(
            precisions=(8, 6, 4, 3, 2),
            train_size=1500,
            test_size=400,
            baseline_epochs=4,
            retrain_epochs=3,
            include_no_retrain=True,
        )
    result = run_table3_accuracy(config)
    emit(lines, "## Table 3 (top) — misclassification rate (%) vs. first-layer precision")
    emit(lines)
    emit(lines, "Synthetic-digit dataset (see repro.datasets.synthetic); "
         "paper numbers are MNIST.")
    emit(lines)
    header = "| Design | " + " | ".join(f"{p} bits" for p in config.precisions) + " |"
    emit(lines, header)
    emit(lines, "|---" * (len(config.precisions) + 1) + "|")
    labels = {"binary": "Binary", "old_sc": "Old SC", "this_work": "This Work",
              "binary_no_retrain": "Binary, no retraining (ablation)"}
    for design in ("binary", "old_sc", "this_work", "binary_no_retrain"):
        if design not in result.rates:
            continue
        cells = []
        for p in config.precisions:
            measured = 100 * result.rates[design][p]
            paper = PAPER_TABLE3_ACCURACY.get(design, {}).get(p)
            cells.append(f"{paper:.2f} / {measured:.2f}" if paper else f"- / {measured:.2f}")
        emit(lines, f"| {labels[design]} (paper / measured) | " + " | ".join(cells) + " |")
    emit(lines)
    print(format_table3_accuracy(result))
    return result


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="small smoke-test configuration")
    parser.add_argument("--output", default=None, help="write the markdown report to this file")
    args = parser.parse_args()

    lines = ["# Paper-vs-measured report (generated by examples/reproduce_paper_tables.py)", ""]
    start = time.time()
    report_table1(lines)
    report_table2(lines)
    hardware = report_hardware(lines)
    accuracy = report_accuracy(lines, quick=args.quick)

    claims = summarize(hardware, accuracy)
    emit(lines, "## Headline claims")
    emit(lines)
    emit(lines, "```")
    emit(lines, format_headline_claims(claims))
    emit(lines, "```")
    print()
    print(format_headline_claims(claims))
    print(f"\ntotal time: {time.time() - start:.0f}s")

    if args.output:
        with open(args.output, "w") as handle:
            handle.write("\n".join(lines) + "\n")
        print(f"markdown report written to {args.output}")


if __name__ == "__main__":
    main()
