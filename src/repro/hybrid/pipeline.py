"""The hybrid stochastic-binary network (paper Fig. 3, Sections IV-V).

:class:`HybridStochasticBinaryNetwork` glues together all the pieces:

* a :class:`~repro.hybrid.acquisition.SensorFrontEnd` converts pixels to
  stochastic bit-streams (simulated sensor);
* a :class:`~repro.sc.convolution.StochasticConv2D` engine evaluates the
  first LeNet-5 layer in the stochastic domain, using the *conditioned*
  (scaled, quantized) weights of a retrained binary model;
* the remaining layers of that retrained model run in the binary domain.

The class supports three evaluation modes for the first layer:

* ``"binary"``    -- the frozen quantized sign layer itself (the "Binary"
                     row of Table 3);
* ``"bitexact"``  -- full bit-level stochastic simulation (ground truth, and
                     what the Table 3 stochastic rows score);
* ``"emulate"``   -- the calibrated fast emulator
                     (:mod:`repro.hybrid.emulation`).

The bit-exact first layer is built once, with the network: one
:class:`~repro.sc.convolution.StochasticConv2D` whose filter bank (weight
streams, MUX select streams, and leaf tables from the first bit-exact call
on) serves every later call, as the hardware loads its weight converters and
select sources once.  A bank is a pure function of (engine, kernels), so
bit-exact outputs do not depend on how images are batched, on their order or
on earlier calls.  Each call converts the acquired images to comparator
levels once per pixel and takes only the sign activation from the counters.
Bit-level simulation stores 64 stream bits per machine word (see
:mod:`repro.bitstream.packed`); its counters equal those of the
byte-per-bit reference kernel in :mod:`repro.sc.dotproduct`.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..faults.spec import FaultSpec
from ..nn.activations import Sign
from ..nn.layers import Conv2D, StochasticResolutionConv2D
from ..nn.network import Sequential
from ..sc import dotproduct
from ..sc.convolution import StochasticConv2D
from ..sc.dotproduct import StochasticDotProductEngine, new_sc_engine
from ..utils.checks import check_count
from ..utils.windows import extract_patches
from .acquisition import SensorFrontEnd
from .emulation import CalibratedSCEmulator

__all__ = ["HybridStochasticBinaryNetwork"]


def _as_images(images) -> np.ndarray:
    """``images`` as a float64 ``(batch, H, W)`` array of at least one image, with
    finite pixels in ``[0, 1]``, else ``ValueError``."""
    images = np.asarray(images, dtype=np.float64)
    if images.ndim != 3:
        raise ValueError(f"images must be a finite (batch, H, W) array, got shape {images.shape}")
    if images.shape[0] < 1:
        raise ValueError(f"images must hold at least one image, got shape {images.shape}")
    if images.size:
        # min and max propagate NaN and infinities without a per-pixel temporary.
        low, high = images.min(), images.max()
        if not (np.isfinite(low) and np.isfinite(high)):
            raise ValueError("images must be a finite (batch, H, W) array, got non-finite pixels")
        # The tolerance of SensorFrontEnd.acquire, so every mode accepts the same pixels.
        if low < -1e-9 or high > 1.0 + 1e-9:
            raise ValueError("pixel values must lie in [0, 1]")
    return images


@dataclass
class _FirstLayerInfo:
    kernels: np.ndarray  # (filters, kh, kw)
    padding: int
    stride: int
    sign_threshold: float


class HybridStochasticBinaryNetwork:
    """A retrained LeNet-5 whose first layer executes in the stochastic domain.

    Parameters
    ----------
    model:
        A trained :class:`Sequential` whose first layer is a (frozen) conv
        layer with sign activation and conditioned weights -- typically the
        output of :func:`repro.nn.retraining.quantize_and_freeze` followed by
        :func:`repro.nn.retraining.retrain`.
    engine:
        Stochastic dot-product engine configuration; defaults to the paper's
        proposed design at the precision implied by the caller.
    front_end:
        Sensor front-end model; defaults to one at the engine's precision.
    soft_threshold:
        Soft-thresholding level applied to the stochastic sign activation
        (fraction of the counter range).
    calibration_samples:
        Number of input windows used to calibrate the fast emulator, a
        positive integer.
    faults:
        Optional :class:`~repro.faults.FaultSpec` describing the fault
        environment of the stochastic first layer: its stream-bit flips are
        threaded into the engine (TFF trees then count from leaf tables plus
        per-word fault corrections under sparse flips and from faulted leaf
        popcounts under dense ones, MUX trees reduce the faulted streams; see
        :mod:`repro.faults`).  Overrides any fault spec already carried by
        ``engine``.  The binary layers are unaffected -- this models upsets
        in the stochastic fabric only.
    """

    def __init__(
        self,
        model: Sequential,
        engine: Optional[StochasticDotProductEngine] = None,
        front_end: Optional[SensorFrontEnd] = None,
        soft_threshold: float = 0.0,
        calibration_samples: int = 512,
        seed: int = 0,
        faults: Optional[FaultSpec] = None,
    ) -> None:
        self.model = model
        engine = engine if engine is not None else new_sc_engine(precision=8)
        if faults is not None:
            engine = dataclasses.replace(engine, faults=faults)
        self.faults = engine.faults
        self.engine = engine
        self.front_end = (
            front_end
            if front_end is not None
            else SensorFrontEnd(precision=engine.precision)
        )
        if self.front_end.precision != self.engine.precision:
            raise ValueError(
                "front end and engine must use the same precision "
                f"({self.front_end.precision} vs {self.engine.precision})"
            )
        self.soft_threshold = float(soft_threshold)
        self.calibration_samples = int(check_count("calibration_samples", calibration_samples))
        self.seed = int(seed)
        self._info = self._extract_first_layer(model)
        #: The bit-exact first layer: one filter bank for the network's lifetime.
        self._stochastic_layer = StochasticConv2D(
            self._info.kernels,
            engine=self.engine,
            padding=self._info.padding,
            stride=self._info.stride,
            soft_threshold=self.soft_threshold,
        )
        self._emulator: Optional[CalibratedSCEmulator] = None

    # ------------------------------------------------------------------ #
    # construction helpers
    # ------------------------------------------------------------------ #
    @staticmethod
    def _extract_first_layer(model: Sequential) -> _FirstLayerInfo:
        if not model.layers or not isinstance(model.layers[0], Conv2D):
            raise ValueError("model's first layer must be a Conv2D")
        first: Conv2D = model.layers[0]
        if first.in_channels != 1:
            raise ValueError("the stochastic first layer operates on 1-channel images")
        if isinstance(first, StochasticResolutionConv2D):
            sign_threshold = first.soft_threshold
        elif isinstance(first.activation, Sign):
            sign_threshold = first.activation.threshold
        else:
            raise ValueError(
                "model's first layer must use the sign activation or emulate the "
                "stochastic resolution (apply quantize_and_freeze first)"
            )
        weights = first.weights[:, 0, :, :].copy()
        if not np.all(np.abs(weights) <= 1.0 + 1e-9):
            raise ValueError("first-layer weights must be finite and conditioned into [-1, 1]")
        return _FirstLayerInfo(
            kernels=weights,
            padding=first.padding,
            stride=first.stride,
            sign_threshold=sign_threshold,
        )

    @property
    def kernels(self) -> np.ndarray:
        """The conditioned first-layer kernels loaded into the SC engine."""
        return self._info.kernels

    @property
    def precision(self) -> int:
        """Bit precision of the stochastic first layer."""
        return self.engine.precision

    @property
    def tile_patches(self) -> int:
        """Image patches per tile of the bit-exact first layer.

        The engine's tile rule (:func:`repro.sc.dotproduct.tile_patches`)
        for the first layer's kernel shape: the rows of the level-patch
        tiles the network's one filter bank evaluates.
        """
        filters, kh, kw = self._info.kernels.shape
        return dotproduct.tile_patches(self.engine, filters, kh * kw)

    # ------------------------------------------------------------------ #
    # first-layer evaluation modes
    # ------------------------------------------------------------------ #
    def first_layer_binary(self, images: np.ndarray) -> np.ndarray:
        """Evaluate the first layer in the binary domain (quantized + sign)."""
        x = np.asarray(images, dtype=np.float64)[:, np.newaxis, :, :]
        return self.model.layers[0].forward(x)

    def first_layer_bitexact(self, images: np.ndarray) -> np.ndarray:
        """Evaluate the first layer with full bit-level stochastic simulation.

        Runs the network's one :class:`StochasticConv2D` and reads only its
        sign activations.
        """
        acquired = self.front_end.acquire(np.asarray(images, dtype=np.float64))
        return self._stochastic_layer.forward(acquired).sign.astype(np.float64)

    def first_layer_emulated(self, images: np.ndarray) -> np.ndarray:
        """Evaluate the first layer with the calibrated fast emulator."""
        emulator = self._get_emulator(images)
        acquired = self.front_end.acquire(np.asarray(images, dtype=np.float64))
        return emulator.forward(
            acquired,
            self._info.kernels,
            padding=self._info.padding,
            soft_threshold=self.soft_threshold,
            stride=self._info.stride,
        )

    def _get_emulator(self, images: np.ndarray) -> CalibratedSCEmulator:
        if self._emulator is None:
            emulator = CalibratedSCEmulator(self.engine, seed=self.seed)
            rng = np.random.default_rng(self.seed)
            kh, kw = self._info.kernels.shape[1:]
            taps = kh * kw
            sample_images = np.asarray(images, dtype=np.float64)
            patches = extract_patches(
                sample_images[: min(8, sample_images.shape[0])],
                (kh, kw),
                self._info.stride,
                self._info.padding,
            ).reshape(-1, taps)
            count = min(self.calibration_samples, patches.shape[0])
            chosen = patches[rng.choice(patches.shape[0], size=count, replace=False)]
            flat_kernels = self._info.kernels.reshape(self._info.kernels.shape[0], -1)
            kernel_sample = flat_kernels[: min(8, flat_kernels.shape[0])]
            emulator.calibrate(chosen, kernel_sample)
            self._emulator = emulator
        return self._emulator

    # ------------------------------------------------------------------ #
    # full-network inference
    # ------------------------------------------------------------------ #
    def forward(self, images: np.ndarray, mode: str = "emulate") -> np.ndarray:
        """Run the full hybrid network and return the output logits.

        ``mode`` selects the first-layer evaluation: ``"binary"``,
        ``"bitexact"`` or ``"emulate"``.  ``images`` must be a
        ``(batch, H, W)`` array of at least one image, with finite pixels in
        ``[0, 1]``; both are checked before any first-layer work.
        """
        first_layer = {
            "binary": self.first_layer_binary,
            "bitexact": self.first_layer_bitexact,
            "emulate": self.first_layer_emulated,
        }.get(mode)
        if first_layer is None:
            raise ValueError(f"unknown mode {mode!r}")
        out = first_layer(_as_images(images))
        for layer in self.model.layers[1:]:
            out = layer.forward(out, training=False)
        return out

    def predict_classes(
        self, images: np.ndarray, mode: str = "emulate", batch_size: int = 64
    ) -> np.ndarray:
        """Predicted class per image, ``batch_size`` images per forward pass.

        ``batch_size`` must be a positive integer and ``images`` a
        ``(batch, H, W)`` array of at least one image, with finite pixels in
        ``[0, 1]``; both are checked before any forward pass.
        """
        check_count("batch_size", batch_size)
        images = _as_images(images)
        predictions = []
        for start in range(0, images.shape[0], batch_size):
            logits = self.forward(images[start : start + batch_size], mode=mode)
            predictions.append(np.argmax(logits, axis=1))
        return np.concatenate(predictions)

    def misclassification_rate(
        self,
        images: np.ndarray,
        labels: np.ndarray,
        mode: str = "emulate",
        limit: Optional[int] = None,
        batch_size: int = 64,
    ) -> float:
        """The paper's metric: fraction of test images classified incorrectly.

        ``limit`` scores only the first ``limit`` images; it must be a
        positive integer, and ``None`` scores every image.  ``labels`` must
        hold one class per scored image, a ``(scored images,)`` array; both
        are checked before any forward pass.
        """
        images = np.asarray(images, dtype=np.float64)
        labels = np.asarray(labels)
        check_count("limit", limit, optional=True)
        if limit is not None:
            images = images[:limit]
            labels = labels[:limit]
        if labels.shape != images.shape[:1]:
            raise ValueError(
                f"labels must have shape {images.shape[:1]}, one class per scored "
                f"image, got shape {labels.shape}"
            )
        predictions = self.predict_classes(images, mode=mode, batch_size=batch_size)
        return float(np.mean(predictions != labels))

    def __repr__(self) -> str:
        return (
            f"HybridStochasticBinaryNetwork(precision={self.precision}, "
            f"adder={self.engine.adder!r}, filters={self.kernels.shape[0]})"
        )
