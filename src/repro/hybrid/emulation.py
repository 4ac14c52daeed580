"""Fast, calibrated emulation of the stochastic first layer.

Bit-exact simulation of the stochastic convolution (every window, every
kernel, every clock cycle) is the ground truth, and the Table 3 harness
(:mod:`repro.eval.table3_accuracy`) scores every stochastic row with it:
the filter-parallel, tile-streamed engine path (see
:mod:`repro.sc.convolution`) counts from leaf tables at about the cost of
emulation.  The emulator in this module is the matmul-speed model behind
``mode="emulate"`` of :class:`~repro.hybrid.pipeline.HybridStochasticBinaryNetwork`:

1. the *ideal* quantized dot products are computed with a single matrix
   multiplication (ramp conversion quantizes the inputs, the weight SNGs
   quantize the weights);
2. the residual error of the stochastic engine is modelled at the point that
   actually decides the activation -- the **difference between the positive
   and negative counter values**.  The positive and negative paths share the
   same input bit-streams, so their individual errors are strongly correlated
   and largely cancel in the difference; calibrating the difference (rather
   than each counter independently) captures that cancellation.  The error
   model is the *empirical residual distribution* measured against the
   bit-exact engine on a sample of real windows, resampled at inference time.

:meth:`CalibratedSCEmulator.calibrate` performs the calibration,
:meth:`CalibratedSCEmulator.forward` applies the model, and the test suite
checks the emulator's sign decisions against the bit-exact engine.

The emulator models the paper's split-weight
:class:`~repro.sc.dotproduct.StochasticDotProductEngine`, the first layer of
both Table 3 designs; any other engine raises ``TypeError`` at
construction.  It calibrates through one call to the engine's filter bank's
tiled ``evaluate`` (:meth:`~repro.sc.dotproduct.PreparedWeights.evaluate`),
honouring the engine's evaluation ``mode`` (:mod:`repro.sc.mode`): under
the default ``"auto"`` the residual samples come from the exact count-domain
shortcut (for TFF and MUX trees a leaf-table gather on comparator levels,
with no stream at all), so calibration speed scales with the count path
while the measured residuals stay bit-identical to ``mode="streams"``.

Validity range: the emulator is calibrated and validated for stream lengths
of 8 bits and above (precision >= 3).  At 2-bit precision (stream length 4)
the counter values are so coarse that the additive-residual model no longer
captures the engine's behaviour.  Within that range it is still a model,
not the engine: on the retrained networks of the Table 3 benchmark it
overstated the old-SC (MUX-tree) misclassification rate 7-11x at 8, 6 and 4
bits, and understated this work's at 3 bits (1.00% emulated against 8.50%
bit-exact).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ..bitstream import quantize_unipolar
from ..sc.dotproduct import StochasticDotProductEngine, split_weights
from ..sc.elements.adders import AdderTree
from ..utils.windows import conv_output_size, extract_patches, patches_to_map

__all__ = ["EmulationModel", "CalibratedSCEmulator"]


@dataclass
class EmulationModel:
    """Calibrated error statistics of one engine configuration.

    All quantities are expressed in counter LSBs of the *difference* between
    the positive and negative counters (the value the sign activation sees).
    """

    #: Mean of the difference error (bit-exact minus ideal).
    bias: float
    #: Standard deviation of the difference error.
    sigma: float
    #: Number of calibration samples (window, kernel) pairs.
    samples: int
    #: The raw residuals, resampled at inference time.
    residuals: np.ndarray = field(repr=False, default=None)


@dataclass
class CalibratedSCEmulator:
    """Emulates a :class:`StochasticDotProductEngine` at matmul speed.

    Parameters
    ----------
    engine:
        The engine configuration being emulated (its precision, adder type and
        number generators determine the calibrated error model); a
        :class:`StochasticDotProductEngine`, else ``TypeError``.
    seed:
        Seed of the generator used to resample emulation residuals.

    Calibration windows are evaluated bit-exactly by the engine's filter
    bank, which tiles them in bounded memory (the tiling contract of
    :mod:`repro.sc.convolution`); tiling never changes a residual.
    """

    engine: StochasticDotProductEngine
    seed: int = 0
    model: Optional[EmulationModel] = field(default=None)

    def __post_init__(self) -> None:
        if not isinstance(self.engine, StochasticDotProductEngine):
            raise TypeError(
                "CalibratedSCEmulator models the split-weight "
                f"StochasticDotProductEngine, got {type(self.engine).__name__}"
            )

    # ------------------------------------------------------------------ #
    # calibration
    # ------------------------------------------------------------------ #
    def calibrate(
        self,
        sample_inputs: np.ndarray,
        sample_weights: np.ndarray,
    ) -> EmulationModel:
        """Measure the engine's counter-difference error on real data.

        Parameters
        ----------
        sample_inputs:
            Unipolar input windows of shape ``(samples, taps)``.
        sample_weights:
            Signed kernel weights of shape ``(kernels, taps)``; every sample
            window is evaluated against every kernel.
        """
        sample_inputs = np.asarray(sample_inputs, dtype=np.float64)
        sample_weights = np.asarray(sample_weights, dtype=np.float64)
        if sample_inputs.ndim != 2 or sample_weights.ndim != 2:
            raise ValueError("calibration expects 2-D inputs and weights")
        if sample_inputs.shape[1] != sample_weights.shape[1]:
            raise ValueError("tap count mismatch between inputs and weights")

        # Bit-exact reference evaluation: one filter bank covers every
        # kernel.  Fault masks (if any) are keyed on the global sample index,
        # so the residuals match the engine's faulted behaviour.
        pos, neg = self.engine.prepare_weights(sample_weights).evaluate(sample_inputs)
        exact_diff = pos - neg
        ideal_diff = self._ideal_difference(sample_inputs, sample_weights)
        # Kernel-major raveling matches the historical per-kernel ordering.
        stacked = (exact_diff - ideal_diff).T.ravel()
        self.model = EmulationModel(
            bias=float(stacked.mean()),
            sigma=float(stacked.std()),
            samples=int(stacked.size),
            residuals=stacked.astype(np.float64),
        )
        return self.model

    def _ideal_difference(self, inputs: np.ndarray, kernels: np.ndarray) -> np.ndarray:
        """Counter-differences an error-free engine would produce (in LSBs).

        ``kernels`` has shape ``(kernels, taps)``; the result has shape
        ``(samples, kernels)``: the positive-minus-negative counter
        difference.
        """
        n = self.engine.length
        taps = inputs.shape[-1]
        tree_scale = 1 << AdderTree().depth(taps)
        # One small matmul per kernel, not one (samples, kernels) matmul: the
        # per-column summation order keeps every float bit-identical to the
        # historical per-kernel calibration loop, so calibrated models (and
        # the noise they resample) are reproducible across versions.
        quantized = quantize_unipolar(inputs, self.engine.precision)
        w_pos, w_neg = split_weights(kernels)
        columns = [(quantized @ w) / tree_scale * n for w in (w_pos - w_neg)]
        return np.stack(columns, axis=-1)

    # ------------------------------------------------------------------ #
    # fast forward pass
    # ------------------------------------------------------------------ #
    def forward_patches(
        self, patches: np.ndarray, kernels: np.ndarray, soft_threshold: float = 0.0
    ) -> np.ndarray:
        """Emulated sign activations for pre-extracted patches.

        ``patches`` has shape ``(batch, P, taps)`` and ``kernels`` shape
        ``(filters, taps)``; the result has shape ``(batch, P, filters)`` with
        values in ``{-1, 0, +1}``.
        """
        if self.model is None:
            raise RuntimeError("emulator must be calibrated before use")
        patches = np.asarray(patches, dtype=np.float64)
        kernels = np.asarray(kernels, dtype=np.float64)
        n = self.engine.length
        taps = patches.shape[-1]
        tree_scale = 1 << AdderTree().depth(taps)

        quantized = quantize_unipolar(patches, self.engine.precision)
        w_pos, w_neg = split_weights(kernels)
        ideal_diff = quantized @ (w_pos - w_neg).T / tree_scale * n

        rng = np.random.default_rng(self.seed)
        noise = rng.choice(self.model.residuals, size=ideal_diff.shape)
        diff = np.round(ideal_diff + noise)
        diff = np.clip(diff, -n, n)

        sign = np.sign(diff)
        if soft_threshold > 0.0:
            sign = np.where(np.abs(diff) < soft_threshold * n, 0.0, sign)
        return sign

    def forward(
        self,
        images: np.ndarray,
        kernels: np.ndarray,
        padding: int = 0,
        soft_threshold: float = 0.0,
        stride: int = 1,
    ) -> np.ndarray:
        """Emulated first-layer output maps, shape ``(batch, filters, out_h, out_w)``.

        ``padding`` and ``stride`` are the convolution geometry, as in
        :class:`~repro.sc.convolution.StochasticConv2D`.
        """
        images = np.asarray(images, dtype=np.float64)
        kernels = np.asarray(kernels, dtype=np.float64)
        if kernels.ndim != 3:
            raise ValueError("kernels must have shape (filters, kh, kw)")
        kh, kw = kernels.shape[1:]
        patches = extract_patches(images, (kh, kw), stride, padding)
        flat_kernels = kernels.reshape(kernels.shape[0], -1)
        sign = self.forward_patches(patches, flat_kernels, soft_threshold=soft_threshold)
        out_h = conv_output_size(images.shape[1], kh, stride, padding)
        out_w = conv_output_size(images.shape[2], kw, stride, padding)
        return patches_to_map(sign, (out_h, out_w))
