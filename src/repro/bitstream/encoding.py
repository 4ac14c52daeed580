"""Value encodings used by stochastic computing.

Stochastic computing (SC) represents a number as the probability of observing
a ``1`` in a bit-stream.  Two interpretations are used throughout the paper
and this library:

* **unipolar** -- a stream with ones-density ``p`` encodes the value ``p`` in
  the interval ``[0, 1]``.
* **bipolar** -- a stream with ones-density ``p`` encodes ``2 * p - 1`` in the
  interval ``[-1, 1]``.

A stream of length ``N = 2**n`` can represent values on the grid
``{0/N, 1/N, ..., N/N}``, i.e. roughly ``n`` bits of precision (paper,
Section II-A).  The helpers below convert between real values, stream
probabilities and the quantized grid, and are shared by the stochastic number
generators, the arithmetic elements and the neural-network quantizers.
"""

from __future__ import annotations

from typing import Union

import numpy as np

from ..utils.checks import check_count

ArrayLike = Union[float, int, np.ndarray]

__all__ = [
    "UNIPOLAR",
    "BIPOLAR",
    "stream_length",
    "clip_unipolar",
    "clip_bipolar",
    "unipolar_to_bipolar",
    "bipolar_to_unipolar",
    "quantize_unipolar",
    "quantize_bipolar",
    "to_probability",
    "from_probability",
]

#: Name of the unipolar encoding (values in ``[0, 1]``).
UNIPOLAR = "unipolar"

#: Name of the bipolar encoding (values in ``[-1, 1]``).
BIPOLAR = "bipolar"

_ENCODINGS = (UNIPOLAR, BIPOLAR)


def _check_encoding(encoding: str) -> str:
    if encoding not in _ENCODINGS:
        raise ValueError(
            f"unknown encoding {encoding!r}; expected one of {_ENCODINGS}"
        )
    return encoding


def stream_length(precision_bits: int) -> int:
    """Return the bit-stream length needed for ``precision_bits`` of precision.

    The paper uses the rule ``N = 2**n``: each extra bit of precision doubles
    the stream length (Section II-A).

    >>> stream_length(4)
    16
    """
    return 1 << int(check_count("precision_bits", precision_bits))


def clip_unipolar(value: ArrayLike) -> np.ndarray:
    """Clip ``value`` into the unipolar range ``[0, 1]``."""
    return np.clip(np.asarray(value, dtype=np.float64), 0.0, 1.0)


def clip_bipolar(value: ArrayLike) -> np.ndarray:
    """Clip ``value`` into the bipolar range ``[-1, 1]``."""
    return np.clip(np.asarray(value, dtype=np.float64), -1.0, 1.0)


def unipolar_to_bipolar(p: ArrayLike) -> np.ndarray:
    """Map a ones-probability ``p`` to the bipolar value ``2 p - 1``."""
    return 2.0 * np.asarray(p, dtype=np.float64) - 1.0


def bipolar_to_unipolar(x: ArrayLike) -> np.ndarray:
    """Map a bipolar value ``x`` to the ones-probability ``(x + 1) / 2``."""
    return (np.asarray(x, dtype=np.float64) + 1.0) / 2.0


def to_probability(value: ArrayLike, encoding: str = UNIPOLAR) -> np.ndarray:
    """Convert an encoded value to the underlying ones-probability.

    Parameters
    ----------
    value:
        Value(s) in the encoding's range.
    encoding:
        Either :data:`UNIPOLAR` or :data:`BIPOLAR`.
    """
    _check_encoding(encoding)
    if encoding == UNIPOLAR:
        return clip_unipolar(value)
    return clip_unipolar(bipolar_to_unipolar(clip_bipolar(value)))


def from_probability(p: ArrayLike, encoding: str = UNIPOLAR) -> np.ndarray:
    """Convert a ones-probability back to the encoded value."""
    _check_encoding(encoding)
    p = clip_unipolar(p)
    if encoding == UNIPOLAR:
        return p
    return unipolar_to_bipolar(p)


def quantize_unipolar(value: ArrayLike, precision: int) -> np.ndarray:
    """Round ``value`` to the nearest representable unipolar value.

    Values are clipped to ``[0, 1]`` and snapped to the grid ``k / 2**precision``.
    """
    n = stream_length(precision)
    return np.round(clip_unipolar(value) * n) / n


def quantize_bipolar(value: ArrayLike, precision: int) -> np.ndarray:
    """Round ``value`` to the nearest representable bipolar value.

    The bipolar grid is the image of the unipolar grid under ``2 p - 1``,
    i.e. steps of ``2 / 2**precision``.
    """
    p = bipolar_to_unipolar(clip_bipolar(value))
    return unipolar_to_bipolar(quantize_unipolar(p, precision))
