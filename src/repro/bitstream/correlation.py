"""Correlation metrics between stochastic bit-streams.

Stochastic arithmetic elements are only accurate under specific correlation
assumptions: the AND-gate multiplier requires *uncorrelated* inputs, while
the paper's TFF adder is explicitly insensitive to input auto-correlation
(Section III).  This module provides the standard metrics used to reason
about those assumptions:

* :func:`stochastic_cross_correlation` -- the SCC metric of Alaghi & Hayes,
  which is 0 for independent streams, +1 for maximally overlapping streams
  and -1 for maximally anti-overlapping streams.
* :func:`autocorrelation` -- lag-k autocorrelation of one stream, used to
  demonstrate that ramp-compare converted streams are heavily auto-correlated
  yet still usable by the TFF adder.
"""

from __future__ import annotations

from typing import Union

import numpy as np

from .bitstream import Bitstream

__all__ = ["stochastic_cross_correlation", "autocorrelation"]

StreamLike = Union[Bitstream, np.ndarray]


def _as_bits(stream: StreamLike) -> np.ndarray:
    if isinstance(stream, Bitstream):
        return stream.bits.astype(np.float64)
    arr = np.asarray(stream, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError("expected a one-dimensional bit array")
    return arr


def stochastic_cross_correlation(x: StreamLike, y: StreamLike) -> float:
    """Stochastic cross-correlation (SCC) between two bit-streams.

    SCC normalizes the deviation of the joint ones-density from independence
    by the maximum deviation achievable at the given marginal densities:

    * ``SCC = 0``  -- streams behave as if independent;
    * ``SCC = +1`` -- ones overlap as much as possible (maximum correlation);
    * ``SCC = -1`` -- ones overlap as little as possible.

    Streams whose marginals are constant 0 or 1 have no correlation degree of
    freedom; by convention this function returns 0 for them.
    """
    a = _as_bits(x)
    b = _as_bits(y)
    if a.shape != b.shape:
        raise ValueError(f"length mismatch: {a.shape[0]} vs {b.shape[0]}")
    n = a.shape[0]
    if n == 0:
        raise ValueError("cannot compute SCC of empty streams")
    p_x = float(a.mean())
    p_y = float(b.mean())
    p_xy = float(np.mean(a * b))
    delta = p_xy - p_x * p_y
    if delta > 0:
        denom = min(p_x, p_y) - p_x * p_y
    else:
        denom = p_x * p_y - max(p_x + p_y - 1.0, 0.0)
    if denom <= 0:
        return 0.0
    return float(delta / denom)


def autocorrelation(x: StreamLike, lag: int = 1) -> float:
    """Lag-``lag`` autocorrelation of a single bit-stream.

    Ramp-compare analog-to-stochastic conversion produces streams whose bits
    are sorted runs of ones/zeros; their lag-1 autocorrelation is close to 1.
    Independent Bernoulli streams have autocorrelation close to 0.  Constant
    streams return 0 by convention.
    """
    a = _as_bits(x)
    if lag < 0:
        raise ValueError("lag must be non-negative")
    if lag >= a.shape[0]:
        raise ValueError(f"lag {lag} too large for stream of length {a.shape[0]}")
    if lag == 0:
        return 1.0 if a.std() > 0 else 0.0
    head = a[:-lag]
    tail = a[lag:]
    std_h = head.std()
    std_t = tail.std()
    if std_h == 0.0 or std_t == 0.0:
        return 0.0
    return float(np.mean((head - head.mean()) * (tail - tail.mean())) / (std_h * std_t))
