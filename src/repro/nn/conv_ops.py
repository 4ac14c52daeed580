"""im2col / col2im primitives for multi-channel convolutions.

The numpy convolution layers lower convolution onto matrix multiplication.
``im2col`` unfolds the input into channel-major columns of shape
``(B, C*kh*kw, out_h*out_w)``: row ``(c, i, j)`` holds tap ``(i, j)`` of
channel ``c`` at every output position, and column ``p`` is the window of
output position ``p``.  With the kernel bank as a ``(filters, C*kh*kw)``
matrix ``W``, the convolution is ``W @ cols``, one BLAS product per image
whose ``(B, filters, out_h*out_w)`` result is already NCHW.  ``col2im`` is
the adjoint operation, applied to ``W.T @ grad`` for the input gradient in
backpropagation.

Data layout everywhere is ``(batch, channels, height, width)``.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

__all__ = ["im2col", "col2im", "conv_output_hw"]


def conv_output_hw(
    height: int, width: int, kernel: Tuple[int, int], stride: int, padding: int
) -> Tuple[int, int]:
    """Output spatial size of a convolution."""
    kh, kw = kernel
    out_h = (height + 2 * padding - kh) // stride + 1
    out_w = (width + 2 * padding - kw) // stride + 1
    if out_h < 1 or out_w < 1:
        raise ValueError(
            f"invalid convolution geometry: input {height}x{width}, kernel {kernel}, "
            f"stride {stride}, padding {padding}"
        )
    return out_h, out_w


def im2col(
    x: np.ndarray, kernel: Tuple[int, int], stride: int = 1, padding: int = 0
) -> np.ndarray:
    """Unfold ``(B, C, H, W)`` inputs into ``(B, C*kh*kw, out_h*out_w)`` columns."""
    if x.ndim != 4:
        raise ValueError(f"expected (B, C, H, W) input, got shape {x.shape}")
    batch, channels, height, width = x.shape
    kh, kw = kernel
    out_h, out_w = conv_output_hw(height, width, kernel, stride, padding)

    if padding > 0:
        x = np.pad(
            x, ((0, 0), (0, 0), (padding, padding), (padding, padding)), mode="constant"
        )

    s0, s1, s2, s3 = x.strides
    view = np.lib.stride_tricks.as_strided(
        x,
        shape=(batch, channels, kh, kw, out_h, out_w),
        strides=(s0, s1, s2, s3, s2 * stride, s3 * stride),
        writeable=False,
    )
    # The view is already in column order, so the reshape is the only copy.
    return view.reshape(batch, channels * kh * kw, out_h * out_w)


def col2im(
    cols: np.ndarray,
    input_shape: Tuple[int, int, int, int],
    kernel: Tuple[int, int],
    stride: int = 1,
    padding: int = 0,
) -> np.ndarray:
    """Adjoint of :func:`im2col`: scatter columns back onto the input grid.

    Overlapping patch contributions are summed, which is exactly the input
    gradient of a convolution.
    """
    batch, channels, height, width = input_shape
    kh, kw = kernel
    out_h, out_w = conv_output_hw(height, width, kernel, stride, padding)
    if cols.shape != (batch, channels * kh * kw, out_h * out_w):
        raise ValueError(
            f"cols shape {cols.shape} does not match expected "
            f"{(batch, channels * kh * kw, out_h * out_w)}"
        )

    padded = np.zeros(
        (batch, channels, height + 2 * padding, width + 2 * padding), dtype=cols.dtype
    )
    taps = cols.reshape(batch, channels, kh, kw, out_h, out_w)
    for i in range(kh):
        for j in range(kw):
            padded[
                :,
                :,
                i : i + stride * out_h : stride,
                j : j + stride * out_w : stride,
            ] += taps[:, :, i, j]
    if padding > 0:
        return padded[:, :, padding:-padding, padding:-padding]
    return padded
