"""Experiment E2 -- Table 2: stochastic adder MSE for different implementations.

The paper compares the conventional MUX adder under three select/data
generation schemes against the proposed TFF adder, again by exhaustively
sweeping every representable input pair at 4-bit and 8-bit precision:

* ``old_random_lfsr``  -- random data bit-streams, LFSR-driven select;
* ``old_random_tff``   -- random data bit-streams, free-running-TFF select
                          (a deterministic 0101... stream);
* ``old_lfsr_tff``     -- LFSR-generated data, free-running-TFF select;
* ``new_tff``          -- the proposed TFF adder (Fig. 2b); data streams come
                          from low-discrepancy SNGs so the measurement
                          isolates the adder's own error.

The expected output in every case is the scaled sum ``(x + y) / 2``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence

import numpy as np

from ..bitstream import stream_length
from ..bitstream.packed import (
    pack_bits,
    packed_popcount,
    packed_tff_add,
)
from ..rng import ComparatorSNG, LFSRSource, PseudoRandomSource, SobolSource, VanDerCorputSource
from ..sc.dotproduct import resolve_mode

__all__ = ["ADDER_CONFIGS", "Table2Result", "adder_mse", "run_table2"]


#: Human-readable labels matching the paper's Table 2 rows.
ADDER_CONFIGS: Dict[str, str] = {
    "old_random_lfsr": "Old adder: Random + LFSR",
    "old_random_tff": "Old adder: Random + TFF",
    "old_lfsr_tff": "Old adder: LFSR + TFF",
    "new_tff": "New adder (Fig. 2b)",
}


@dataclass
class Table2Result:
    """MSE of stochastic addition for every configuration and precision."""

    mse: Dict[str, Dict[int, float]]
    precisions: Sequence[int]

    def improvement_factor(self, precision: int) -> float:
        """How much lower the new adder's MSE is than the best old configuration."""
        old = min(
            value[precision] for key, value in self.mse.items() if key != "new_tff"
        )
        new = self.mse["new_tff"][precision]
        if new == 0:
            return float("inf")
        return old / new


def _data_generators(config: str, precision: int, seed: int):
    if config.startswith("old_random") :
        return (
            ComparatorSNG(PseudoRandomSource(seed=seed)),
            ComparatorSNG(PseudoRandomSource(seed=seed + 1)),
        )
    if config == "old_lfsr_tff":
        return (
            ComparatorSNG(LFSRSource(precision, seed=seed)),
            ComparatorSNG(LFSRSource(precision, seed=seed * 2 + 1)),
        )
    # new_tff: low-discrepancy data so only the adder's own error remains.
    return (
        ComparatorSNG(VanDerCorputSource(precision)),
        ComparatorSNG(SobolSource(precision, dimension=1)),
    )


def _select_bits(config: str, precision: int, length: int, seed: int) -> np.ndarray:
    if config == "old_random_lfsr":
        reference = LFSRSource(precision, seed=seed + 7).sequence(length)
        return (reference < 0.5).astype(np.uint8)
    # Both "+ TFF" configurations use the free-running toggle select.
    return (np.arange(length, dtype=np.int64) & 1).astype(np.uint8)


def adder_mse(
    config: str,
    precision: int,
    seed: int = 1,
    mode: str | None = None,
) -> float:
    """Exhaustive MSE of one adder configuration at one precision.

    The sweep runs the packed TFF/MUX word kernels, which are bit-identical
    to the byte-level element adders.

    Under the default ``mode="auto"`` (see :mod:`repro.sc.mode`) the sweep
    never materializes the ``(N+1, N+1)`` grid of sum streams: a single TFF
    adder's output count is exactly ``floor((ones_x + ones_y) / 2)`` and a
    single MUX adder's is exactly
    ``popcount(x & ~sel) + popcount(y & sel)``, so the full grid of counts is
    one outer sum of two length-``N+1`` count vectors -- bit-identical
    estimates, O(N) instead of O(N^2) stream memory.  ``mode="streams"``
    forces the reference kernel sweep.
    """
    if config not in ADDER_CONFIGS:
        raise ValueError(f"unknown adder config {config!r}; expected {sorted(ADDER_CONFIGS)}")
    mode = resolve_mode(mode)
    n = stream_length(precision)
    values = np.arange(n + 1, dtype=np.float64) / n
    sng_x, sng_y = _data_generators(config, precision, seed)
    x_words = sng_x.generate_packed(values, n)  # (n+1, W)
    y_words = sng_y.generate_packed(values, n)

    if mode != "streams":
        if config == "new_tff":
            # TffAdder with initial_state=0: count = floor((cx + cy) / 2).
            counts = (
                packed_popcount(x_words)[:, np.newaxis]
                + packed_popcount(y_words)[np.newaxis, :]
            ) >> 1
        else:
            select = pack_bits(_select_bits(config, precision, n, seed))
            counts = (
                packed_popcount(x_words & ~select)[:, np.newaxis]
                + packed_popcount(y_words & select)[np.newaxis, :]
            )
        estimates = counts / n
    else:
        x_all = np.broadcast_to(
            x_words[:, np.newaxis, :], (n + 1, n + 1, x_words.shape[-1])
        )
        y_all = np.broadcast_to(
            y_words[np.newaxis, :, :], (n + 1, n + 1, y_words.shape[-1])
        )
        if config == "new_tff":
            sums_words = packed_tff_add(x_all, y_all, n)
        else:
            select = pack_bits(_select_bits(config, precision, n, seed))
            sums_words = (y_all & select) | (x_all & ~select)
        estimates = packed_popcount(sums_words) / n
    exact = 0.5 * (values[:, np.newaxis] + values[np.newaxis, :])
    return float(np.mean((estimates - exact) ** 2))


def run_table2(
    precisions: Sequence[int] = (8, 4),
    configs: Sequence[str] | None = None,
    seed: int = 1,
) -> Table2Result:
    """Reproduce Table 2 for the requested precisions and adder configurations."""
    configs = list(configs) if configs is not None else list(ADDER_CONFIGS)
    mse: Dict[str, Dict[int, float]] = {}
    for config in configs:
        mse[config] = {
            precision: adder_mse(config, precision, seed=seed)
            for precision in precisions
        }
    return Table2Result(mse=mse, precisions=tuple(precisions))
