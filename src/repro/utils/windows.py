"""Sliding-window (im2col) utilities of the stochastic layers.

The stochastic side -- :mod:`repro.sc`, :mod:`repro.hybrid` and the fault
sweep -- cuts single-channel images into patch rows with
:func:`extract_patches`: every output position becomes one row of
``kernel_height * kernel_width`` input samples.  The numpy convolution
layers of :mod:`repro.nn` unfold their inputs with
:func:`repro.nn.conv_ops.im2col` instead, into channel-major columns; for
one channel, column ``p`` of those holds exactly the samples of patch row
``p`` here (``tests/test_windows.py`` pins this).  So the binary baseline
and the stochastic design see *exactly* the same pixels for every output,
which is a precondition for a fair accuracy comparison.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

__all__ = ["conv_output_size", "pad_images", "extract_patches", "patches_to_map"]


def conv_output_size(size: int, kernel: int, stride: int, padding: int) -> int:
    """Spatial output size of a convolution along one dimension."""
    if stride < 1:
        raise ValueError(f"stride must be at least 1, got {stride!r}")
    out = (size + 2 * padding - kernel) // stride + 1
    if out < 1:
        raise ValueError(
            f"invalid convolution geometry: size={size}, kernel={kernel}, "
            f"stride={stride}, padding={padding}"
        )
    return out


def pad_images(images: np.ndarray, padding: int, value: float = 0.0) -> np.ndarray:
    """Zero-pad the two trailing spatial axes of ``(..., H, W)`` image arrays."""
    if padding == 0:
        return images
    if padding < 0:
        raise ValueError("padding must be non-negative")
    pad_width = [(0, 0)] * (images.ndim - 2) + [(padding, padding), (padding, padding)]
    return np.pad(images, pad_width, mode="constant", constant_values=value)


def extract_patches(
    images: np.ndarray,
    kernel_size: Tuple[int, int],
    stride: int = 1,
    padding: int = 0,
) -> np.ndarray:
    """Extract sliding windows from a batch of single-channel images.

    Parameters
    ----------
    images:
        Array of shape ``(batch, H, W)``.
    kernel_size:
        ``(kh, kw)`` window size.
    stride:
        Window stride (same in both dimensions).
    padding:
        Symmetric zero padding applied before extraction.

    Returns
    -------
    patches:
        Array of shape ``(batch, out_h * out_w, kh * kw)`` whose rows are the
        flattened windows in row-major output order.
    """
    images = np.asarray(images)
    if images.ndim != 3:
        raise ValueError(f"expected (batch, H, W) images, got shape {images.shape}")
    kh, kw = kernel_size
    padded = pad_images(images, padding)
    batch, height, width = padded.shape
    out_h = conv_output_size(images.shape[1], kh, stride, padding)
    out_w = conv_output_size(images.shape[2], kw, stride, padding)

    # Build a strided view (batch, out_h, out_w, kh, kw) without copying, then
    # flatten to patch rows.  numpy's as_strided is safe here because every
    # index stays inside the padded array.
    s0, s1, s2 = padded.strides
    view = np.lib.stride_tricks.as_strided(
        padded,
        shape=(batch, out_h, out_w, kh, kw),
        strides=(s0, s1 * stride, s2 * stride, s1, s2),
        writeable=False,
    )
    return view.reshape(batch, out_h * out_w, kh * kw).copy()


def patches_to_map(
    patch_values: np.ndarray, out_shape: Tuple[int, int]
) -> np.ndarray:
    """Reshape per-patch results ``(batch, P, F)`` back to ``(batch, F, out_h, out_w)``.

    This is a pure reshape/transpose: the dtype of ``patch_values`` is
    preserved exactly, so integer counter values pass through without any
    float round trip (callers must not reintroduce one -- float64 cannot
    represent every int64 above ``2**53``).
    """
    out_h, out_w = out_shape
    batch, patches, filters = patch_values.shape
    if patches != out_h * out_w:
        raise ValueError(
            f"patch count {patches} does not match output shape {out_shape}"
        )
    maps = patch_values.reshape(batch, out_h, out_w, filters)
    return np.transpose(maps, (0, 3, 1, 2))
