"""Experiment E8 -- the paper's headline claims, derived from the other experiments.

The abstract and conclusion of the paper distil the evaluation into four
claims:

1. the hybrid design is ~9.8x more energy efficient than the all-binary
   design at 4-bit precision, and breaks even at 8-bit;
2. application-level accuracy is within 0.05 % (8-bit) / 0.25 % (4-bit) of
   the binary design;
3. the new adder/multiplier give up to 2.92 % better accuracy than prior SC
   designs;
4. retraining the binary layers compensates for the precision loss
   introduced by SC.

:func:`summarize` evaluates every claim from the reproduced tables and
returns a structured verdict used by the headline benchmark and the
paper-vs-measured report of ``examples/reproduce_paper_tables.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from .table3_accuracy import Table3AccuracyResult
from .table3_hardware import Table3HardwareResult

__all__ = ["HeadlineClaims", "summarize"]


@dataclass
class HeadlineClaims:
    """Measured values behind each headline claim."""

    #: Energy-efficiency ratio (binary / stochastic energy per frame) at 4-bit.
    energy_ratio_4bit: float
    #: Highest precision where the stochastic design is at least as efficient.
    break_even_precision: int
    #: Accuracy gap (this work minus binary) at 8-bit, in percentage points.
    accuracy_gap_8bit_pct: Optional[float]
    #: Accuracy gap at 4-bit, in percentage points.
    accuracy_gap_4bit_pct: Optional[float]
    #: Largest accuracy improvement over the old SC design, percentage points.
    max_improvement_over_old_sc_pct: Optional[float]
    #: Stochastic-to-binary area ratio at 4-bit.
    area_ratio_4bit: float

    def as_dict(self) -> Dict[str, float]:
        """Plain-dict view (used by the report writer)."""
        return {
            "energy_ratio_4bit": self.energy_ratio_4bit,
            "break_even_precision": self.break_even_precision,
            "accuracy_gap_8bit_pct": self.accuracy_gap_8bit_pct,
            "accuracy_gap_4bit_pct": self.accuracy_gap_4bit_pct,
            "max_improvement_over_old_sc_pct": self.max_improvement_over_old_sc_pct,
            "area_ratio_4bit": self.area_ratio_4bit,
        }


def summarize(
    hardware: Table3HardwareResult,
    accuracy: Optional[Table3AccuracyResult] = None,
) -> HeadlineClaims:
    """Derive the headline claims from the reproduced Table 3 results."""
    energy_ratio_4bit = hardware.energy_efficiency_at(4)
    break_even = hardware.break_even_precision()
    area_ratio_4bit = hardware.area_ratio_at(4)

    gap_8 = gap_4 = max_improvement = None
    if accuracy is not None:
        rates = accuracy.rates
        if 8 in rates["binary"] and 8 in rates["this_work"]:
            gap_8 = 100.0 * accuracy.gap_to_binary("this_work", 8)
        if 4 in rates["binary"] and 4 in rates["this_work"]:
            gap_4 = 100.0 * accuracy.gap_to_binary("this_work", 4)
        shared = [
            p for p in rates["old_sc"] if p in rates["this_work"]
        ]
        if shared:
            max_improvement = 100.0 * max(
                accuracy.improvement_over_old_sc(p) for p in shared
            )

    return HeadlineClaims(
        energy_ratio_4bit=energy_ratio_4bit,
        break_even_precision=break_even,
        accuracy_gap_8bit_pct=gap_8,
        accuracy_gap_4bit_pct=gap_4,
        max_improvement_over_old_sc_pct=max_improvement,
        area_ratio_4bit=area_ratio_4bit,
    )
