"""Weight quantization, per-kernel weight scaling and soft thresholding.

These are the three conditioning steps the paper applies to the first-layer
weights before they enter the stochastic domain (Sections IV-B and V-B):

* **quantization** -- weights are rounded to the ``b``-bit bipolar grid, the
  precision of the weight SNGs;
* **weight scaling** -- each convolution kernel is normalized so its largest
  magnitude becomes 1.0, using the full dynamic range of the bipolar encoding
  (Kim et al.'s trick).  Because the first layer's activation is a sign
  function, the positive per-kernel scale factor does not change the layer's
  output, so no rescaling is needed downstream;
* **soft thresholding** -- dot-product results whose magnitude falls below a
  threshold are forced to zero, mitigating SC's inaccuracy near zero.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..bitstream import quantize_bipolar

__all__ = [
    "scale_kernels",
    "quantize_weights",
    "prepare_first_layer_weights",
    "soft_threshold",
]


def scale_kernels(weights: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Normalize each kernel to the full bipolar range ``[-1, 1]``.

    Parameters
    ----------
    weights:
        Kernel bank of shape ``(filters, ...)``; scaling is per filter.

    Returns
    -------
    (scaled, scales):
        ``scaled`` has every kernel's maximum magnitude equal to 1 (kernels
        that are exactly zero are left untouched); ``scales`` holds the
        per-filter divisors so callers can undo the scaling if needed.
    """
    weights = np.asarray(weights, dtype=np.float64)
    if weights.ndim < 2:
        raise ValueError("expected a (filters, ...) kernel bank")
    flat = weights.reshape(weights.shape[0], -1)
    scales = np.max(np.abs(flat), axis=1)
    safe = np.where(scales > 0, scales, 1.0)
    scaled = weights / safe.reshape((-1,) + (1,) * (weights.ndim - 1))
    return scaled, safe


def quantize_weights(weights: np.ndarray, precision: int) -> np.ndarray:
    """Round weights (already in ``[-1, 1]``) to the ``precision``-bit bipolar grid."""
    weights = np.asarray(weights, dtype=np.float64)
    if not np.all(np.abs(weights) <= 1.0 + 1e-9):
        raise ValueError(
            "weights must be finite and in [-1, 1] before quantization; apply scale_kernels first"
        )
    return quantize_bipolar(weights, precision)


def prepare_first_layer_weights(
    weights: np.ndarray, precision: int, scale: bool = True
) -> np.ndarray:
    """The full conditioning pipeline for first-layer kernels.

    Applies (optional) per-kernel weight scaling followed by ``precision``-bit
    quantization; the result is what both the binary-quantized baseline and
    the stochastic engine load as kernel weights.
    """
    weights = np.asarray(weights, dtype=np.float64)
    if scale:
        weights, _ = scale_kernels(weights)
    else:
        max_mag = np.max(np.abs(weights))
        if max_mag > 1.0:
            weights = weights / max_mag
    return quantize_weights(weights, precision)


def soft_threshold(values: np.ndarray, threshold: float) -> np.ndarray:
    """Force values with magnitude below ``threshold`` to zero."""
    if threshold < 0:
        raise ValueError("threshold must be non-negative")
    values = np.asarray(values, dtype=np.float64)
    if threshold == 0.0:
        return values
    return np.where(np.abs(values) < threshold, 0.0, values)
