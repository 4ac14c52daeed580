"""Experiments E4-E6 -- Table 3 (bottom): power, energy and area vs. precision.

Thin wrapper around :class:`repro.hw.comparison.HardwareComparison` that
returns the rows in the same layout as the paper's table and exposes the
headline-figure helpers used by the summary experiment (E8).

By default the stochastic engine's switching activity comes from the
technology assumption; ``activity_traces > 0`` instead *measures* it the way
PrimeTime would -- the engine netlist is simulated against a whole batch of
randomly drawn input windows in one word-parallel run
(:func:`measure_sc_activity`).  The
measurement is taken *per precision column*: every requested precision gets
its own batched simulation at its own stream length (``2**precision``
cycles), and each row's power model is driven by the activity measured at
that precision, rather than one highest-precision number shared by all rows.

The netlists costed here are gated by the static analyzer: the area/power
roll-ups (:mod:`repro.netlist.power`) emit an
:class:`~repro.netlist.lint.UnobservableAreaWarning` whenever a costed
netlist contains cells that no primary output can observe, since such cells
would silently inflate every number in this table.  The builder circuits
behind the comparison are kept lint-clean (``python -m repro lint``), so a
warning surfacing through this module indicates a construction bug upstream.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..bitstream import unpack_bits
from ..hw import HardwareComparison, HardwareComparisonRow
from ..hw.technology import DEFAULT_GEOMETRY
from ..netlist import build_sc_dot_product, simulate_batch
from ..sc import new_sc_engine
from ..utils.checks import check_count

__all__ = ["Table3HardwareResult", "run_table3_hardware", "measure_sc_activity"]


@dataclass
class Table3HardwareResult:
    """Hardware comparison rows plus convenience accessors."""

    rows: List[HardwareComparisonRow]
    calibrated: bool
    #: Trace-measured switching activity of the stochastic engine at the
    #: highest requested precision (toggles/cycle/net), or ``None`` when the
    #: technology default was used.
    measured_activity: Optional[float] = None
    #: Per-precision trace-measured activities driving each row's power
    #: model, or ``None`` when the technology default was used.
    measured_activity_by_precision: Optional[Dict[int, float]] = None

    def by_precision(self) -> Dict[int, HardwareComparisonRow]:
        """Rows indexed by precision."""
        return {row.precision: row for row in self.rows}

    def energy_efficiency_at(self, precision: int) -> float:
        """Binary-to-stochastic energy-per-frame ratio at a precision."""
        return self.by_precision()[precision].energy_efficiency_ratio

    def break_even_precision(self) -> int:
        """Highest precision at which the stochastic design is at least as efficient."""
        efficient = [
            row.precision for row in self.rows if row.energy_efficiency_ratio >= 1.0
        ]
        if not efficient:
            raise ValueError("stochastic design never breaks even")
        return max(efficient)

    def area_ratio_at(self, precision: int) -> float:
        """Stochastic-to-binary area ratio at a precision."""
        return self.by_precision()[precision].area_ratio


def measure_sc_activity(
    precision: int,
    traces: int,
    taps: int = DEFAULT_GEOMETRY.taps,
    seed: int = 0,
) -> float:
    """Mean switching activity of the SC engine over a random trace batch.

    Draws ``traces`` random input windows and one random kernel, converts
    every window into this work's engine's actual input bit-streams (one
    trace per window, stacked on the leading axis) plus the shared weight
    streams, runs one batched word-parallel simulation of the engine's
    dot-product netlist (:func:`repro.netlist.circuits.build_sc_dot_product`,
    :func:`repro.netlist.simulator.simulate_batch`) at the given precision,
    and returns the mean toggle rate (toggles per cycle per net) of its
    :class:`~repro.netlist.simulator.BatchSimulationResult` across the whole
    trace set.  ``traces`` must be a positive integer.
    """
    check_count("traces", traces)
    rng = np.random.default_rng(seed)
    windows = rng.random((traces, taps))
    weights = rng.uniform(-1.0, 1.0, taps)
    engine = new_sc_engine(precision)
    n = engine.length
    x_bits = unpack_bits(engine.input_words(engine.prepare_inputs(windows)), n)
    wp_bits, wn_bits = (unpack_bits(words, n) for words in engine.weight_words(weights))
    stimulus = {}
    for i in range(taps):
        stimulus[f"x{i}"] = x_bits[:, i, :]
        stimulus[f"wp{i}"] = wp_bits[i]
        stimulus[f"wn{i}"] = wn_bits[i]
    netlist = build_sc_dot_product(taps, precision + 1, adder=engine.adder)
    return simulate_batch(netlist, stimulus, strict=True).average_activity()


def run_table3_hardware(
    precisions: Sequence[int] = (8, 7, 6, 5, 4, 3, 2),
    calibrate: bool = True,
    activity_traces: int = 0,
    activity_seed: int = 0,
) -> Table3HardwareResult:
    """Build the hardware half of Table 3.

    Parameters
    ----------
    precisions:
        Precision columns to evaluate.
    calibrate:
        Anchor the absolute scale to the paper's 8-bit synthesis results.
    activity_traces:
        When positive, replace the assumed stochastic-engine activity factor
        by one measured from a batched netlist simulation over this many
        random input traces -- measured independently at *every* requested
        precision (each column's simulation runs for its own ``2**precision``
        cycles), so the per-row power model reflects precision-dependent
        switching behaviour instead of a single shared estimate.
    activity_seed:
        RNG seed for the measurement traces.
    """
    measured: Optional[Dict[int, float]] = None
    if activity_traces:
        measured = {
            precision: measure_sc_activity(
                precision, activity_traces, seed=activity_seed
            )
            for precision in dict.fromkeys(precisions)
        }
    comparison = HardwareComparison(calibrate=calibrate, sc_activity=measured)
    return Table3HardwareResult(
        rows=comparison.rows(precisions),
        calibrated=calibrate,
        measured_activity=measured[max(measured)] if measured else None,
        measured_activity_by_precision=dict(measured) if measured else None,
    )
