"""Ramp sources and the ramp-compare analog-to-stochastic converter.

The paper's signal-acquisition front end (Section IV-A) reuses the comparator
and ramp generator of a ramp-compare ADC: the analog pixel value is compared
against a rising ramp, and the comparator output *is* the stochastic
bit-stream.  The resulting stream is

* exact -- the ones-count equals the quantized pixel value, with no
  stochastic fluctuation at all (which is why the "ramp-compare + [4]" row of
  Table 1 has the lowest MSE); and
* heavily auto-correlated -- all the ones appear as one contiguous run.
  Conventional sequential SC circuits break under such auto-correlation, but
  the paper's TFF adder is insensitive to it, which is precisely what makes
  the hybrid design possible.

Because this repository has no physical sensor, the converter operates on
digital pixel values normalized to ``[0, 1]``; the *structure* of the emitted
bit-stream (exact counts, maximal auto-correlation) is identical to what the
analog front end would produce, which is all the downstream computation sees.
"""

from __future__ import annotations

import numpy as np

from ..utils.checks import check_count
from .sources import NumberSource

__all__ = [
    "RampSource",
    "ramp_compare_stream",
    "ramp_compare_batch",
]


class RampSource(NumberSource):
    """A monotonically rising ramp ``0/N, 1/N, ..., (N-1)/N`` repeated cyclically.

    Used as the comparator reference of the ramp-compare converter and as the
    "ramp-compare" number source of Table 1.  ``descending=True`` yields the
    falling-ramp variant (identical statistics, reversed run placement).
    """

    def __init__(self, bits: int, descending: bool = False) -> None:
        self.resolution_bits = check_count("bits", bits)
        self.descending = bool(descending)

    def sequence(self, length: int) -> np.ndarray:
        n = 1 << self.resolution_bits
        k = np.arange(length, dtype=np.int64) % n
        if self.descending:
            k = n - 1 - k
        return k.astype(np.float64) / n

    def __repr__(self) -> str:
        return (
            f"RampSource(bits={self.resolution_bits}, descending={self.descending})"
        )


def ramp_compare_stream(
    value: float, length: int, descending: bool = False
) -> np.ndarray:
    """Convert one normalized analog sample to a stochastic bit-stream.

    The comparator emits ``1`` while the ramp is below ``value``; over one
    ramp period of ``length`` steps this produces exactly
    ``floor(value * length)`` ones (clipped to ``[0, length]``), arranged as a
    single run -- the signature auto-correlated pattern of ramp conversion.

    Parameters
    ----------
    value:
        The sample, expected in ``[0, 1]`` (values outside are clipped).
    length:
        Bit-stream length; one full ramp period.
    descending:
        Use a falling ramp, which places the run of ones at the end.
    """
    ramp = RampSource(_bits_for_length(length), descending=descending).sequence(length)
    v = float(np.clip(value, 0.0, 1.0))
    return (ramp < v).astype(np.uint8)


def ramp_compare_batch(
    values: np.ndarray, length: int, descending: bool = False
) -> np.ndarray:
    """Vectorized :func:`ramp_compare_stream` over an array of samples.

    Returns an array of shape ``values.shape + (length,)`` with dtype uint8:
    every pixel of an image converted in parallel, as by the simulated sensor
    front end.
    """
    values = np.clip(np.asarray(values, dtype=np.float64), 0.0, 1.0)
    ramp = RampSource(_bits_for_length(length), descending=descending).sequence(length)
    return (ramp[np.newaxis, ...] < values[..., np.newaxis]).astype(np.uint8)


def _bits_for_length(length: int) -> int:
    if length < 2 or (length & (length - 1)) != 0:
        raise ValueError(f"stream length must be a power of two >= 2, got {length}")
    return int(length).bit_length() - 1
