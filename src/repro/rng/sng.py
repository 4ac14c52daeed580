"""Stochastic number generators (SNGs).

An SNG converts a binary (or analog) value into a stochastic bit-stream by
comparing it against a number source every clock cycle (Fig. 1c of the
paper).  The accuracy of stochastic arithmetic is dominated by which sources
drive the SNGs and how those sources relate to each other -- that is exactly
what Table 1 of the paper quantifies.  This module provides:

* :class:`ComparatorSNG` -- the generic comparator-based SNG over any
  :class:`~repro.rng.sources.NumberSource`, including its *comparator
  levels*: a bank of SNGs sharing one source emits streams fully set by one
  integer per value (:meth:`ComparatorSNG.levels`), expanded into streams
  only on demand (:meth:`ComparatorSNG.expand_levels`);
* :class:`RampCompareSNG` -- the analog-to-stochastic converter variant used
  for the sensor input;
* :func:`sng_pair` -- a factory for the four input-pair generation schemes
  compared in Table 1, by name.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..bitstream import Bitstream, to_probability
from ..bitstream.packed import pack_comparator_output
from .lfsr import ALTERNATE_TAPS, LFSRSource, RotatedLFSRSource
from .lowdiscrepancy import SobolSource, VanDerCorputSource
from .ramp import RampSource
from .sources import NumberSource, PseudoRandomSource

__all__ = [
    "ComparatorSNG",
    "RampCompareSNG",
    "level_dtype",
    "sng_pair",
    "TABLE1_SCHEMES",
]


def level_dtype(length: int) -> np.dtype:
    """Integer dtype holding every comparator level ``0..length``.

    int16 up to ``length = 2**14`` (precision 14), int32 beyond.
    """
    return np.dtype(np.int16 if length <= 1 << 14 else np.int32)


class ComparatorSNG:
    """A comparator-based stochastic number generator.

    Parameters
    ----------
    source:
        The number source feeding the comparator's reference input.
    encoding:
        How input values are interpreted ("unipolar" or "bipolar").  Bipolar
        values are first mapped to their ones-probability.
    """

    def __init__(self, source: NumberSource, encoding: str = "unipolar") -> None:
        self.source = source
        self.encoding = encoding

    def generate(self, value: float, length: int) -> Bitstream:
        """Generate a ``length``-bit stream encoding ``value``."""
        bits = self.generate_bits(np.asarray([value]), length)[0]
        return Bitstream(bits, encoding=self.encoding)

    def generate_bits(self, values: np.ndarray, length: int) -> np.ndarray:
        """Vectorized generation: returns shape ``values.shape + (length,)`` uint8.

        Every value is compared against the *same* source sequence, which
        models a bank of SNGs sharing one number source -- the arrangement
        used for the weight generators in the paper's convolution engine
        (the source cost is amortized across all units).
        """
        p = to_probability(np.asarray(values, dtype=np.float64), self.encoding)
        ref = self.source.sequence(length)
        return (ref < p[..., np.newaxis]).astype(np.uint8)

    def generate_packed(self, values: np.ndarray, length: int) -> np.ndarray:
        """Vectorized generation straight into packed words.

        Returns uint64 words of shape ``values.shape + (ceil(length / 64),)``
        holding exactly the bits :meth:`generate_bits` would produce, packed
        64-per-word (see :mod:`repro.bitstream.packed`).  The comparator
        output is packed chunk by chunk so the transient unpacked bits never
        exceed a few MiB regardless of batch size.
        """
        p = to_probability(np.asarray(values, dtype=np.float64), self.encoding)
        return pack_comparator_output(self.source.sequence(length), p)

    # ------------------------------------------------------------------ #
    # comparator levels
    # ------------------------------------------------------------------ #
    # Every stream of one SNG bank is compared against the same source
    # sequence ``s``, so a stream is fully set by its *level*
    # ``c = #{n : s[n] < p}``: its ones sit exactly at the first ``c``
    # positions of the stable argsort of ``s``.  A threshold always takes a
    # group of tied source values whole, so ties (the value an LFSR repeats
    # in every 2**p-cycle stream) need no special case.

    def sort_order(self, length: int) -> np.ndarray:
        """Stable argsort of the source sequence: level ``c`` sets bits
        ``sort_order(length)[:c]``."""
        return np.argsort(self.source.sequence(length), kind="stable")

    def levels(self, values: np.ndarray, length: int) -> np.ndarray:
        """Comparator levels ``#{n : s[n] < p}``, shape ``values.shape``.

        Dtype :func:`level_dtype` of ``length``; each level equals the
        ones-count of the stream :meth:`generate_packed` would produce.
        """
        p = to_probability(np.asarray(values, dtype=np.float64), self.encoding)
        ordered = np.sort(self.source.sequence(length))
        return np.searchsorted(ordered, p, side="left").astype(level_dtype(length))

    def expand_levels(self, levels: np.ndarray, length: int) -> np.ndarray:
        """Packed streams of comparator :meth:`levels`: ``levels.shape + (W,)``.

        Bit ``n`` is set iff the rank of cycle ``n`` in :meth:`sort_order`
        is below the level -- exactly the :meth:`generate_packed` bits.
        """
        rank = np.empty(length, dtype=np.float64)
        rank[self.sort_order(length)] = np.arange(length)
        return pack_comparator_output(rank, levels)

    def __repr__(self) -> str:
        return f"ComparatorSNG(source={self.source!r}, encoding={self.encoding!r})"


class RampCompareSNG(ComparatorSNG):
    """The ramp-compare analog-to-stochastic converter (paper Section IV-A).

    Functionally an SNG whose reference input is a ramp rather than a random
    number; the generated stream has exact ones-counts but maximal
    auto-correlation.  ``descending`` selects the falling-ramp variant.
    """

    def __init__(
        self, bits: int, descending: bool = False, encoding: str = "unipolar"
    ) -> None:
        super().__init__(RampSource(bits, descending=descending), encoding=encoding)


#: Names of the four number-generation schemes evaluated in Table 1, mapped to
#: a short description.  Use with :func:`sng_pair`.
TABLE1_SCHEMES = {
    "shared_lfsr": "One LFSR + shifted version",
    "two_lfsrs": "Two LFSRs",
    "low_discrepancy": "Low-discrepancy sequences [4]",
    "ramp_low_discrepancy": "Ramp-compare [13] + [4]",
}


def sng_pair(
    scheme: str, precision: int, seed: int = 1
) -> Tuple[ComparatorSNG, ComparatorSNG]:
    """Return the pair of SNGs implementing one Table 1 scheme.

    Parameters
    ----------
    scheme:
        One of the keys of :data:`TABLE1_SCHEMES`.
    precision:
        Binary precision in bits; the generated streams have length
        ``2**precision``.
    seed:
        Seed for the LFSR-based schemes (any non-zero register value).

    Returns
    -------
    (sng_x, sng_y):
        The generators for the first and second multiplier input.
    """
    if scheme == "shared_lfsr":
        base = LFSRSource(precision, seed=seed)
        # The "shifted version" is the same register read through rotated
        # wires: zero extra hardware, but the two streams stay correlated.
        return ComparatorSNG(base), ComparatorSNG(RotatedLFSRSource(base, rotation=1))
    if scheme == "two_lfsrs":
        first = LFSRSource(precision, seed=seed)
        period = (1 << precision) - 1
        second_seed = (4 * seed) % period or 1
        taps = ALTERNATE_TAPS.get(precision)
        second = LFSRSource(precision, seed=second_seed, taps=taps)
        return ComparatorSNG(first), ComparatorSNG(second)
    if scheme == "low_discrepancy":
        return (
            ComparatorSNG(VanDerCorputSource(precision)),
            ComparatorSNG(SobolSource(precision, dimension=1)),
        )
    if scheme == "ramp_low_discrepancy":
        return (
            RampCompareSNG(precision),
            ComparatorSNG(SobolSource(precision, dimension=1)),
        )
    if scheme == "random":
        # Not part of Table 1 but used by Table 2's "Random + ..." adder rows.
        return (
            ComparatorSNG(PseudoRandomSource(seed=seed)),
            ComparatorSNG(PseudoRandomSource(seed=seed + 1)),
        )
    raise ValueError(
        f"unknown scheme {scheme!r}; expected one of {sorted(TABLE1_SCHEMES)} or 'random'"
    )
