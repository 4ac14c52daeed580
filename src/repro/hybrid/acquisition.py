"""Simulated sensor front end: analog acquisition and ramp-compare conversion.

The paper's system (Fig. 3, Section IV-A) feeds the stochastic first layer
directly from the image sensor: each pixel's analog value is compared against
a shared ramp, and the comparator output *is* the stochastic bit-stream --
no ADC, no SNG, no random number generator on the input path.

There is no physical sensor in this reproduction, so the front end is
simulated: pixels arrive as digital values in ``[0, 1]``.  The ramp compare
itself is the first-layer engine's input SNG
(:class:`~repro.rng.sng.RampCompareSNG`), which emits bit-streams with
exactly the structure the analog circuit would (exact ones-counts, maximal
auto-correlation).  Conversion energy is tracked as metadata but --
following the paper, which cites ~100 pJ per conversion versus 100s of nJ
per frame of compute -- excluded from the energy-per-frame results.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from ..bitstream import stream_length
from ..utils.checks import check_count

__all__ = ["SensorFrontEnd"]


@dataclass
class SensorFrontEnd:
    """Analog-to-stochastic signal acquisition model.

    Parameters
    ----------
    precision:
        Bit precision of the conversion; one ramp period equals
        ``2**precision`` clock cycles.
    conversion_energy_pj:
        Bookkeeping value for the per-pixel conversion energy; reported by
        :meth:`conversion_energy_nj` but never added to compute energy,
        matching the paper's accounting.
    """

    precision: int = 8
    conversion_energy_pj: float = 100.0

    def __post_init__(self) -> None:
        check_count("precision", self.precision, 2)

    @property
    def stream_length(self) -> int:
        """Bit-stream length produced per pixel."""
        return stream_length(self.precision)

    def acquire(self, images: np.ndarray) -> np.ndarray:
        """Check the pixels and clip them to the valid range ``[0, 1]``.

        Pixels must be finite and lie in ``[0, 1]`` up to a ``1e-9``
        tolerance, which the clip removes; anything else raises
        ``ValueError``.
        """
        images = np.asarray(images, dtype=np.float64)
        if not np.all(np.isfinite(images)):
            raise ValueError("pixel values must be finite")
        if images.min() < -1e-9 or images.max() > 1.0 + 1e-9:
            raise ValueError("pixel values must lie in [0, 1]")
        return np.clip(images, 0.0, 1.0)

    def conversion_energy_nj(self, pixel_count: int) -> float:
        """Total conversion energy for ``pixel_count`` pixels, in nJ (metadata only)."""
        if pixel_count < 0:
            raise ValueError("pixel_count must be non-negative")
        return pixel_count * self.conversion_energy_pj * 1e-3
