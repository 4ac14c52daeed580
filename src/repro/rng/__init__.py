"""Number sources and stochastic number generators (SNGs)."""

from .lfsr import ALTERNATE_TAPS, LFSR, LFSRSource, MAXIMAL_TAPS, RotatedLFSRSource
from .lowdiscrepancy import SobolSource, VanDerCorputSource, bit_reverse
from .ramp import (
    RampSource,
    ramp_compare_batch,
    ramp_compare_stream,
)
from .sng import TABLE1_SCHEMES, ComparatorSNG, RampCompareSNG, level_dtype, sng_pair
from .sources import NumberSource, PseudoRandomSource

__all__ = [
    "NumberSource",
    "PseudoRandomSource",
    "LFSR",
    "LFSRSource",
    "RotatedLFSRSource",
    "MAXIMAL_TAPS",
    "ALTERNATE_TAPS",
    "VanDerCorputSource",
    "SobolSource",
    "bit_reverse",
    "RampSource",
    "ramp_compare_stream",
    "ramp_compare_batch",
    "ComparatorSNG",
    "RampCompareSNG",
    "level_dtype",
    "sng_pair",
    "TABLE1_SCHEMES",
]
