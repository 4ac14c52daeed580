"""Number sources and stochastic number generators (SNGs)."""

from .lfsr import (
    ALTERNATE_TAPS,
    LFSR,
    LFSRSource,
    MAXIMAL_TAPS,
    RotatedLFSRSource,
    ShiftedLFSRSource,
)
from .lowdiscrepancy import (
    HaltonSource,
    SobolSource,
    VanDerCorputSource,
    bit_reverse,
    van_der_corput,
)
from .ramp import (
    RampSource,
    ramp_compare_batch,
    ramp_compare_stream,
)
from .sng import TABLE1_SCHEMES, ComparatorSNG, RampCompareSNG, level_dtype, sng_pair
from .sources import ConstantSource, CounterSource, NumberSource, PseudoRandomSource

__all__ = [
    "NumberSource",
    "PseudoRandomSource",
    "CounterSource",
    "ConstantSource",
    "LFSR",
    "LFSRSource",
    "ShiftedLFSRSource",
    "RotatedLFSRSource",
    "MAXIMAL_TAPS",
    "ALTERNATE_TAPS",
    "VanDerCorputSource",
    "SobolSource",
    "HaltonSource",
    "bit_reverse",
    "van_der_corput",
    "RampSource",
    "ramp_compare_stream",
    "ramp_compare_batch",
    "ComparatorSNG",
    "RampCompareSNG",
    "level_dtype",
    "sng_pair",
    "TABLE1_SCHEMES",
]
