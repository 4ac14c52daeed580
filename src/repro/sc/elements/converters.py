"""Stochastic-to-binary conversion (counting ones) and the sign comparator.

Leaving the stochastic domain is done by counting ones (Fig. 1d of the
paper): after ``N`` cycles the counter holds the integer numerator of the
stream's value.  The paper uses asynchronous (ripple) counters, which let
the stochastic core run at full speed; functionally every counter produces
the same count, so only the count is modelled here (the counter's cost is
part of the gate-level netlists, :func:`repro.netlist.build_sc_dot_product`).
"""

from __future__ import annotations

import numpy as np

from .util import StreamLike, as_bits

__all__ = ["count_ones", "stochastic_to_binary", "sign_from_counts"]


def count_ones(stream: StreamLike) -> np.ndarray:
    """Count the ones of each stream along the last axis (vectorized)."""
    bits, _ = as_bits(stream)
    return bits.sum(axis=-1, dtype=np.int64)


def stochastic_to_binary(stream: StreamLike, encoding: str = "unipolar") -> np.ndarray:
    """Convert stream(s) to the binary value they encode.

    Returns floats: ``ones / N`` for unipolar and ``2 * ones / N - 1`` for
    bipolar streams.
    """
    bits, _ = as_bits(stream)
    n = bits.shape[-1]
    p = count_ones(bits) / float(n)
    if encoding == "unipolar":
        return p
    if encoding == "bipolar":
        return 2.0 * p - 1.0
    raise ValueError(f"unknown encoding {encoding!r}")


def sign_from_counts(
    positive_count: np.ndarray, negative_count: np.ndarray
) -> np.ndarray:
    """The binary sign-activation comparator of the hybrid first layer.

    The stochastic dot-product engine produces two unipolar results -- one for
    the positive-weight products and one for the negative-weight products --
    each converted to a count.  The activation g(x, w) = sign(x . w) is then a
    plain binary comparison of the two counts:

    * +1 when the positive count exceeds the negative count,
    * -1 when it is smaller,
    *  0 on a tie.
    """
    pos = np.asarray(positive_count, dtype=np.int64)
    neg = np.asarray(negative_count, dtype=np.int64)
    return np.sign(pos - neg).astype(np.int8)
