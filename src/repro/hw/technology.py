"""Technology and system-level constants for the hardware evaluation.

The paper synthesizes both convolution engines in a 65 nm TSMC process and
reports *throughput-normalized* power: the binary design is charged the
power it would draw when clocked fast enough to match the stochastic
design's frame rate (Section VI).  The constants here define that comparison
fixture:

* the geometry of the first LeNet-5 layer (Fig. 3): 784 output positions,
  5x5 kernels, 32 kernels;
* the parallelism of the two engines: the stochastic array instantiates one
  dot-product engine per output position and iterates over kernels, the
  binary baseline instantiates one MAC per kernel and slides over windows;
* the stochastic core clock (asynchronous output counters let it run fast);
* the placement utilization and net-wiring overhead applied when converting
  summed cell area to die area.

Absolute calibration is inherited from the 65 nm-like standard-cell library
(:mod:`repro.netlist.cells`).  The Table 3 *trends* rest on the relative
costs of the two engines, which draw on the same cells and constants, not
on their absolute values; :mod:`repro.hw.comparison` can anchor the absolute
scale to the paper's 8-bit synthesis results.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["SystemGeometry", "TechnologyParameters", "DEFAULT_GEOMETRY", "DEFAULT_TECH"]


@dataclass(frozen=True)
class SystemGeometry:
    """First-layer geometry shared by both engine models."""

    #: Number of convolution output positions per image (28x28, "same" padding).
    windows: int = 784
    #: Taps per kernel (5x5).
    taps: int = 25
    #: Number of first-layer kernels.
    kernels: int = 32
    #: Image pixel count (28x28).
    pixels: int = 784

    @property
    def macs_per_frame(self) -> int:
        """Multiply-accumulate operations needed per frame."""
        return self.windows * self.taps * self.kernels


@dataclass(frozen=True)
class TechnologyParameters:
    """Clocking, activity and physical-design assumptions."""

    #: Stochastic core clock in MHz (fast thanks to the tiny logic depth and
    #: asynchronous counters).  500 MHz reproduces the paper's 8-bit frame
    #: time of ~16 us (543 nJ at 33 mW), so the energy anchor is consistent
    #: with the power anchor.
    sc_clock_mhz: float = 500.0
    #: Reference binary clock in MHz (only used for non-normalized reporting).
    binary_clock_mhz: float = 500.0
    #: Average switching activity of the stochastic datapath (bit-streams have
    #: densities spread over [0, 1], so nets toggle often).
    sc_activity: float = 0.25
    #: Average switching activity of the binary datapath.
    binary_activity: float = 0.18
    #: Placement utilization (cell area / core area).
    utilization: float = 0.75
    #: Multiplier covering clock tree, wiring capacitance and glue logic that
    #: a gate-count model cannot see.
    wiring_overhead: float = 1.25

    def __post_init__(self) -> None:
        if self.sc_clock_mhz <= 0 or self.binary_clock_mhz <= 0:
            raise ValueError("clock frequencies must be positive")
        if not 0 < self.utilization <= 1:
            raise ValueError("utilization must lie in (0, 1]")
        if self.wiring_overhead < 1.0:
            raise ValueError("wiring_overhead must be >= 1")
        if not 0 <= self.sc_activity <= 1 or not 0 <= self.binary_activity <= 1:
            raise ValueError("activities must lie in [0, 1]")


#: Default geometry matching the paper's Fig. 3.
DEFAULT_GEOMETRY = SystemGeometry()

#: Default technology assumptions.
DEFAULT_TECH = TechnologyParameters()
