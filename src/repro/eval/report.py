"""Formatting helpers: render reproduced results as paper-style text tables.

Every benchmark prints its rows through these formatters so that the console
output can be compared side by side with the paper's tables, and the
paper-vs-measured report of ``examples/reproduce_paper_tables.py`` can be
regenerated mechanically.
"""

from __future__ import annotations

from typing import Iterable

from ..rng.sng import TABLE1_SCHEMES
from .summary import HeadlineClaims
from .table1 import Table1Result
from .table2 import ADDER_CONFIGS, Table2Result
from .table3_accuracy import Table3AccuracyResult
from .table3_hardware import Table3HardwareResult

__all__ = [
    "format_table1",
    "format_table2",
    "format_table3_accuracy",
    "format_table3_hardware",
    "format_headline_claims",
]

_DESIGN_LABELS = {
    "binary": "Binary",
    "old_sc": "Old SC",
    "this_work": "This Work",
    "binary_no_retrain": "Binary (no retraining)",
}


def _format_row(label: str, cells: Iterable[str], width: int = 12) -> str:
    return f"{label:<34}" + "".join(f"{cell:>{width}}" for cell in cells)


def format_table1(result: Table1Result) -> str:
    """Render the multiplier-MSE table (paper Table 1)."""
    lines = ["Table 1. MSE of stochastic multiplier for different RNG methods"]
    header = [f"{p}-Bit Prec." for p in result.precisions]
    lines.append(_format_row("Number generation scheme", header))
    for scheme, label in TABLE1_SCHEMES.items():
        if scheme not in result.mse:
            continue
        cells = [f"{result.mse[scheme][p]:.2e}" for p in result.precisions]
        lines.append(_format_row(label, cells))
    return "\n".join(lines)


def format_table2(result: Table2Result) -> str:
    """Render the adder-MSE table (paper Table 2)."""
    lines = ["Table 2. MSE of stochastic addition for different SNG methods"]
    header = [f"{p}-Bit Prec." for p in result.precisions]
    lines.append(_format_row("Implementation", header))
    for config, label in ADDER_CONFIGS.items():
        if config not in result.mse:
            continue
        cells = [f"{result.mse[config][p]:.2e}" for p in result.precisions]
        lines.append(_format_row(label, cells))
    return "\n".join(lines)


def format_table3_accuracy(result: Table3AccuracyResult) -> str:
    """Render the misclassification-rate section of Table 3."""
    precisions = sorted(
        {p for design in result.rates.values() for p in design}, reverse=True
    )
    lines = [
        "Table 3 (top). Misclassification rates (%) for full binary and "
        "hybrid stochastic-binary designs",
        _format_row("Design", [f"{p} Bits" for p in precisions]),
    ]
    for design, rates in result.rates.items():
        label = _DESIGN_LABELS.get(design, design)
        cells = [
            f"{100 * rates[p]:.2f}%" if p in rates else "-" for p in precisions
        ]
        lines.append(_format_row(label, cells))
    lines.append(
        f"(baseline full-precision misclassification: "
        f"{100 * result.baseline_misclassification:.2f}%, "
        f"train={result.train_size}, test={result.test_size}, "
        f"stochastic rows: bit-exact on {result.sc_test_size} test images)"
    )
    return "\n".join(lines)


def format_table3_hardware(result: Table3HardwareResult) -> str:
    """Render the power / energy / area section of Table 3."""
    rows = result.rows
    precisions = [row.precision for row in rows]
    lines = [
        "Table 3 (bottom). Throughput-normalized power, energy efficiency and area"
        + ("  [calibrated to the paper's 8-bit anchor]" if result.calibrated else "  [raw model]"),
        _format_row("Metric / Design", [f"{p} Bits" for p in precisions]),
        _format_row("Power (mW)      Binary", [f"{r.binary_power_mw:.2f}" for r in rows]),
        _format_row("                This Work", [f"{r.sc_power_mw:.2f}" for r in rows]),
        _format_row("Energy (nJ/frame) Binary", [f"{r.binary_energy_nj:.2f}" for r in rows]),
        _format_row("                This Work", [f"{r.sc_energy_nj:.2f}" for r in rows]),
        _format_row("Area (mm^2)     Binary", [f"{r.binary_area_mm2:.3f}" for r in rows]),
        _format_row("                This Work", [f"{r.sc_area_mm2:.3f}" for r in rows]),
        _format_row("Energy ratio (Binary/This Work)", [f"{r.energy_efficiency_ratio:.1f}x" for r in rows]),
    ]
    return "\n".join(lines)


def format_headline_claims(claims: HeadlineClaims) -> str:
    """Render the headline-claim summary (experiment E8)."""
    lines = ["Headline claims (paper vs. reproduction)"]
    lines.append(
        f"  energy efficiency at 4-bit:   paper 9.8x   measured {claims.energy_ratio_4bit:.1f}x"
    )
    lines.append(
        f"  energy break-even precision:  paper 8 bits measured {claims.break_even_precision} bits"
    )
    if claims.accuracy_gap_8bit_pct is not None:
        lines.append(
            f"  accuracy gap to binary @8b:   paper 0.05%  measured "
            f"{claims.accuracy_gap_8bit_pct:+.2f}%"
        )
    if claims.accuracy_gap_4bit_pct is not None:
        lines.append(
            f"  accuracy gap to binary @4b:   paper 0.25%  measured "
            f"{claims.accuracy_gap_4bit_pct:+.2f}%"
        )
    if claims.max_improvement_over_old_sc_pct is not None:
        lines.append(
            f"  max improvement over old SC:  paper 2.92%  measured "
            f"{claims.max_improvement_over_old_sc_pct:+.2f}%"
        )
    lines.append(
        f"  area ratio (SC / binary) @4b: paper ~2x    measured {claims.area_ratio_4bit:.1f}x"
    )
    return "\n".join(lines)
