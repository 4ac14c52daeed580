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
The layer is *filter-parallel*: at construction the engine's
:meth:`~repro.sc.dotproduct.StochasticDotProductEngine.prepare_weights`
builds one weight-stream bank with a leading filter axis (``(filters, 2,
taps, words)``) and one lane-per-``(filter, sign)`` adder-tree plan, so a
single vectorized reduction covers every kernel -- with the counter values
of evaluating the kernels one at a time, for every adder and generator
configuration, because adder nodes are instantiated in filter-major order.
The layer keeps that one bank for its lifetime, as the hardware loads its
weight converters and select sources once: a bank is a pure function of
(engine, kernels) -- MUX select seeds restart with each bank (see "MUX
select seeds" in :mod:`repro.sc.dotproduct`) -- and its leaf tables are
built on the first evaluation and reused by every later one.

Each forward pass converts the image batch to a *comparator-level map*
with one ``prepare_inputs`` call, as the sensor front end converts each
pixel once (Section IV-A, Fig. 3); patches are then cut from the level map,
not from the pixels.  A level depends only on its pixel and zero padding is
level 0 for every input source, so the patches hold exactly the levels of
converting every tap of every patch.

Execution is *tile-streamed* by the bank itself
(:meth:`~repro.sc.dotproduct.PreparedWeights.evaluate_levels`): the level
patches of the whole batch are cut into tiles of
:func:`~repro.sc.dotproduct.tile_patches` rows -- a fixed byte budget over
the per-patch size of the largest temporary on the path the bank runs --
and each tile is fault-injected at its global patch offset and counted.
Peak memory is therefore bounded at any batch size: gathered leaf counts on
the leaf-table path; on the corrections path (TFF trees under sparse stream
faults) the larger of those, the tile's fault masks and the expected
per-word corrections, so one 28x28 image at 1e-3 flips is one tile; lane
products wherever input streams are built (dense stream faults and
``mode="streams"``).  This is what lets the bit-exact Table 3 rows
(:mod:`repro.eval.table3_accuracy`) cover the full test set.  Any tiling --
including tiles that do not divide the patch count -- produces counts
bit-identical to one untiled pass.

Results
-------
:class:`StochasticConvResult` holds the two counter maps only; the sign
activation and the reconstructed value are derived from them on access, so
a caller that reads only the sign (the hybrid network's bit-exact first
layer) computes nothing else.

Evaluation mode
---------------
The layer inherits the engine's evaluation mode (:mod:`repro.sc.mode`):
under the ``"auto"`` default and without stream faults, each tile is a
gather from the bank's leaf tables, halved per level for TFF trees and
summed over select-masked taps for MUX trees, and no stream is built; under
sparse stream faults TFF trees add one exact correction per faulted input
word to that gather -- while ``mode="streams"`` forces the reference stream
reduction.  Both
produce bit-identical counters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..utils.checks import check_count
from ..utils.windows import conv_output_size, extract_patches, patches_to_map
from .dotproduct import DotProductResult, StochasticDotProductEngine, new_sc_engine

__all__ = [
    "StochasticConvResult",
    "StochasticConv2D",
]


@dataclass
class StochasticConvResult(DotProductResult):
    """All outputs of one stochastic convolution pass: the two counter maps.

    ``positive_count`` and ``negative_count`` are int64 maps of shape
    ``(batch, filters, out_h, out_w)``.  :attr:`sign` and :attr:`value` are
    derived from them on access, as for
    :class:`~repro.sc.dotproduct.DotProductResult`, and are 0 where the soft
    threshold zeroes an output.
    """

    #: The layer's soft threshold, a fraction of the counter range.
    soft_threshold: float = 0.0

    def _below_threshold(self) -> Optional[np.ndarray]:
        """Where the soft threshold zeroes an output, or ``None`` without one."""
        if self.soft_threshold > 0.0:
            diff = self.positive_count - self.negative_count
            return np.abs(diff) < self.soft_threshold * self.length
        return None

    @property
    def sign(self) -> np.ndarray:
        """Sign activations (same shape), int8 values -1/0/+1."""
        sign = super().sign
        below = self._below_threshold()
        return sign if below is None else np.where(below, 0, sign).astype(np.int8)

    @property
    def value(self) -> np.ndarray:
        """Reconstructed dot-product values (same shape) -- used for analysis
        and for validating the fast emulation mode; a real sensor node would
        not compute these."""
        value = super().value
        below = self._below_threshold()
        return value if below is None else np.where(below, 0.0, value)


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
        self.padding = int(check_count("padding", padding, 0))
        self.stride = int(check_count("stride", stride))
        self.soft_threshold = float(soft_threshold)
        #: One weight bank for all kernels (leading filter axis, fused
        #: positive/negative trees), shared by every tile of every forward
        #: pass -- exactly as the weight-side converters are shared in
        #: hardware.
        self.bank = self.engine.prepare_weights(kernels.reshape(self.filters, -1))

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

        out_shape = self.output_shape(images.shape[1:])
        # One comparator level per pixel; patches are cut from the level map.
        levels = self.engine.prepare_inputs(images)
        patches = extract_patches(levels, self.kernel_size, self.stride, self.padding)
        pos, neg = self.bank.evaluate_levels(patches)
        # ``patches_to_map`` is a pure reshape/transpose, so counts stay int64
        # end to end -- no float64 round trip that would silently corrupt
        # counter values beyond 2**53.
        return StochasticConvResult(
            positive_count=patches_to_map(pos, out_shape),
            negative_count=patches_to_map(neg, out_shape),
            length=self.engine.length,
            tree_scale=self.bank.tree_scale,
            soft_threshold=self.soft_threshold,
        )

    def __repr__(self) -> str:
        return (
            f"StochasticConv2D(filters={self.filters}, kernel={self.kernel_size}, "
            f"padding={self.padding}, stride={self.stride}, engine={self.engine!r})"
        )
