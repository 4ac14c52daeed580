"""Experiment E1 -- Table 1: stochastic multiplier MSE vs. number-generation scheme.

The paper compares four ways of generating the two input bit-streams of an
AND-gate multiplier and reports the mean squared error of the product,
computed by *exhaustively* testing every representable input pair at 4-bit
and 8-bit precision.  This module reproduces that sweep.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence

import numpy as np

from ..bitstream import stream_length
from ..bitstream.packed import packed_popcount
from ..rng.sng import TABLE1_SCHEMES, sng_pair

__all__ = ["Table1Result", "multiplier_mse", "run_table1"]


@dataclass
class Table1Result:
    """MSE of the stochastic multiplier for every scheme and precision."""

    #: ``mse[scheme][precision]`` in the same units as the paper (squared value error).
    mse: Dict[str, Dict[int, float]]
    precisions: Sequence[int]

    def ordering_at(self, precision: int) -> list:
        """Schemes sorted from worst (highest MSE) to best."""
        return sorted(self.mse, key=lambda s: -self.mse[s][precision])

    def best_scheme(self, precision: int) -> str:
        """The most accurate scheme at a precision."""
        return self.ordering_at(precision)[-1]


def multiplier_mse(
    scheme: str,
    precision: int,
    seed: int = 1,
) -> float:
    """Exhaustive MSE of the AND multiplier under one number-generation scheme.

    Every representable value pair ``(k/N, m/N)`` for ``k, m`` in ``0..N`` is
    multiplied with streams of length ``N = 2**precision`` and compared with
    the exact product.  The AND/popcount sweep runs on packed 64-bit words.
    """
    n = stream_length(precision)
    values = np.arange(n + 1, dtype=np.float64) / n
    sng_x, sng_y = sng_pair(scheme, precision, seed=seed)
    x_words = sng_x.generate_packed(values, n)  # (n+1, W)
    y_words = sng_y.generate_packed(values, n)
    products = x_words[:, np.newaxis, :] & y_words[np.newaxis, :, :]
    estimates = packed_popcount(products) / n
    exact = np.outer(values, values)
    return float(np.mean((estimates - exact) ** 2))


def run_table1(
    precisions: Sequence[int] = (8, 4),
    schemes: Sequence[str] | None = None,
    seed: int = 1,
) -> Table1Result:
    """Reproduce Table 1 for the requested precisions and schemes."""
    schemes = list(schemes) if schemes is not None else list(TABLE1_SCHEMES)
    mse: Dict[str, Dict[int, float]] = {}
    for scheme in schemes:
        mse[scheme] = {
            precision: multiplier_mse(scheme, precision, seed=seed)
            for precision in precisions
        }
    return Table1Result(mse=mse, precisions=tuple(precisions))
