"""The stochastic convolution layer (784 parallel dot-product engines, Fig. 3).

The hybrid first layer of the paper is a convolutional layer evaluated
entirely in the stochastic domain: every output position has a dedicated
stochastic dot-product engine, the 32 kernels are applied sequentially, and
each engine's output is the sign activation computed from two counters.

:class:`StochasticConv2D` drives a :class:`~repro.sc.dotproduct.StochasticDotProductEngine`
over a batch of images.  Inputs are pixel values in ``[0, 1]`` (as produced by
the simulated sensor front end) and kernels are signed weights in ``[-1, 1]``
(after weight scaling).  Outputs follow the ``(batch, filters, H, W)`` layout
of the binary :class:`repro.nn.layers.Conv2D` so the two can be swapped
freely inside a network.

Filter axis and tiling contract
-------------------------------
The layer is *filter-parallel*: the engine's
:meth:`~repro.sc.dotproduct.StochasticDotProductEngine.prepare_weights`
builds one weight-stream bank with a leading filter axis (``(filters, 2,
taps, words)``) and one lane-per-``(filter, sign)`` adder-tree plan, so a
single vectorized reduction covers every kernel -- with the counter values
of evaluating the kernels one at a time, for every adder and generator
configuration, because adder nodes are instantiated in filter-major order.

Execution is *tile-streamed* by the bank itself
(:meth:`~repro.sc.dotproduct.PreparedWeights.evaluate`): the image patches
of the whole batch are cut into tiles of
:func:`~repro.sc.dotproduct.tile_patches` rows -- a fixed byte budget over
the per-patch size of the largest temporary on the path the bank runs --
and each tile's pixels are converted to comparator levels, fault-injected
at the tile's global patch offset and counted.  Peak memory is therefore
bounded at any batch size: gathered leaf counts on the leaf-table path,
lane products wherever input streams are built (stream faults and
``mode="streams"``).  This is what lets ``REPRO_BITEXACT=1`` runs cover the
full MNIST test set.  Level conversion is stateless and the weight bank (select
streams and leaf tables included) is built once per forward pass and
reused, so any tiling -- including tiles that do not divide the patch
count -- produces counts bit-identical to one untiled pass.

Evaluation mode
---------------
The layer inherits the engine's evaluation mode (:mod:`repro.sc.mode`):
under the ``"auto"`` default and without stream faults, each tile is a
gather from the bank's leaf tables, halved per level for TFF trees and
summed over select-masked taps for MUX trees, and no stream is built --
while ``mode="streams"`` forces the reference stream reduction.  Both
produce bit-identical counters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..utils.windows import conv_output_size, extract_patches, patches_to_map
from .dotproduct import StochasticDotProductEngine, new_sc_engine

__all__ = [
    "StochasticConvResult",
    "StochasticConv2D",
]


@dataclass
class StochasticConvResult:
    """All outputs of one stochastic convolution pass."""

    #: Sign activations, shape ``(batch, filters, out_h, out_w)``, values -1/0/+1.
    sign: np.ndarray
    #: Reconstructed dot-product values (same shape) -- used for analysis and
    #: for validating the fast emulation mode; a real sensor node would not
    #: compute these.
    value: np.ndarray
    #: Positive- and negative-path counter outputs (same shape).
    positive_count: np.ndarray
    negative_count: np.ndarray


class StochasticConv2D:
    """Convolution evaluated with stochastic dot-product engines.

    Parameters
    ----------
    kernels:
        Signed kernel weights of shape ``(filters, kh, kw)`` with values in
        ``[-1, 1]``; at least one filter is required.
    engine:
        The dot-product engine configuration; defaults to the paper's
        proposed design at 8-bit precision.
    padding / stride:
        Convolution geometry.  The paper's Fig. 3 uses "same" padding so that
        a 28x28 image produces 784 output positions; pass
        ``padding=kernel//2`` for that arrangement.
    soft_threshold:
        If non-zero, dot products whose magnitude (in counter LSBs) is below
        ``soft_threshold * N`` are forced to zero before the sign activation.
        This is the error-mitigation trick of Kim et al. adopted in
        Section V-B for near-zero values.
    """

    def __init__(
        self,
        kernels: np.ndarray,
        engine: Optional[StochasticDotProductEngine] = None,
        padding: int = 0,
        stride: int = 1,
        soft_threshold: float = 0.0,
    ) -> None:
        kernels = np.asarray(kernels, dtype=np.float64)
        if kernels.ndim != 3:
            raise ValueError(
                f"kernels must have shape (filters, kh, kw), got {kernels.shape}"
            )
        if kernels.shape[0] == 0:
            raise ValueError(
                "kernels must contain at least one filter "
                f"(got shape {kernels.shape})"
            )
        if not np.all(np.abs(kernels) <= 1.0 + 1e-9):
            raise ValueError("kernel weights must be finite and lie in [-1, 1]")
        if soft_threshold < 0:
            raise ValueError("soft_threshold must be non-negative")
        self.kernels = kernels
        self.engine = engine if engine is not None else new_sc_engine(precision=8)
        self.padding = int(padding)
        self.stride = int(stride)
        self.soft_threshold = float(soft_threshold)

    @property
    def filters(self) -> int:
        """Number of convolution kernels."""
        return self.kernels.shape[0]

    @property
    def kernel_size(self) -> tuple[int, int]:
        """Spatial kernel size ``(kh, kw)``."""
        return self.kernels.shape[1], self.kernels.shape[2]

    def output_shape(self, image_shape: tuple[int, int]) -> tuple[int, int]:
        """Spatial output shape for a given input image shape."""
        kh, kw = self.kernel_size
        return (
            conv_output_size(image_shape[0], kh, self.stride, self.padding),
            conv_output_size(image_shape[1], kw, self.stride, self.padding),
        )

    def forward(self, images: np.ndarray) -> StochasticConvResult:
        """Run the stochastic convolution over a batch of images.

        Parameters
        ----------
        images:
            Array of shape ``(batch, H, W)`` with pixel values in ``[0, 1]``.
        """
        images = np.asarray(images, dtype=np.float64)
        if images.ndim != 3:
            raise ValueError(f"expected (batch, H, W) images, got {images.shape}")
        if not np.all(np.isfinite(images)):
            raise ValueError("pixel values must be finite")
        # Guard the range check behind ``size``: an empty batch has no pixels
        # to validate and ``min()``/``max()`` would raise on it.  Geometry is
        # still validated (via ``output_shape``), and the bank returns empty
        # counts for zero patches.
        if images.size and (images.min() < -1e-9 or images.max() > 1.0 + 1e-9):
            raise ValueError("pixel values must lie in [0, 1]")

        kh, kw = self.kernel_size
        out_h, out_w = self.output_shape(images.shape[1:])
        patches = extract_patches(images, (kh, kw), self.stride, self.padding)

        # One weight bank for all kernels (leading filter axis, fused
        # positive/negative trees), shared by every patch tile -- exactly as
        # the weight-side converters are shared in hardware.
        bank = self.engine.prepare_weights(self.kernels.reshape(self.filters, kh * kw))
        pos, neg = bank.evaluate(patches)

        length = self.engine.length
        tree_scale = bank.tree_scale
        value = (pos - neg).astype(np.float64) / length * tree_scale
        sign = np.sign(pos - neg).astype(np.int8)
        if self.soft_threshold > 0.0:
            below = np.abs(pos - neg) < self.soft_threshold * length
            sign = np.where(below, 0, sign).astype(np.int8)
            value = np.where(below, 0.0, value)

        # ``patches_to_map`` is a pure reshape/transpose, so counts stay int64
        # end to end -- no float64 round trip that would silently corrupt
        # counter values beyond 2**53.
        return StochasticConvResult(
            sign=patches_to_map(sign, (out_h, out_w)),
            value=patches_to_map(value, (out_h, out_w)),
            positive_count=patches_to_map(pos, (out_h, out_w)),
            negative_count=patches_to_map(neg, (out_h, out_w)),
        )

    def __repr__(self) -> str:
        return (
            f"StochasticConv2D(filters={self.filters}, kernel={self.kernel_size}, "
            f"padding={self.padding}, stride={self.stride}, engine={self.engine!r})"
        )
