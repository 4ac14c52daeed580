"""The fault specification: one seeded channel of stream-bit flips.

:class:`FaultSpec` is the whole fault model: a per-bit soft-error flip rate
on the input streams and the seed of the counter-hashed mask generator.  It
is a frozen value object: two equal specs always produce bit-identical
faults.  A faulted packed stream word is the clean word XOR its flip word,

    faulted = w ^ flips

Mask randomness is counter-hashed per global stream index (see
:mod:`repro.faults.masks`): the caller passes the ``offset`` of its current
tile into :meth:`FaultSpec.apply` or :meth:`FaultSpec.nonzero_masks`, which
is how tiled and untiled evaluation passes, every tile a filter bank picks,
and repeated ``dot()`` calls all see identical faults.

Sparse faults need no stream at all.  :meth:`FaultSpec.word_fault_share`
gives the expected share of packed words a spec faults (6.2% at 1e-3 flips
and N = 256), and :meth:`FaultSpec.nonzero_masks` returns only those words
with their flat indices.  Below a measured share the engines' TFF banks
count from leaf tables and correct each faulted word
(:attr:`repro.sc.dotproduct.StochasticDotProductEngine.evaluation_path`).
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from ..bitstream.packed import WORD_BITS
from ..utils.checks import check_count
from .masks import bernoulli_words

__all__ = ["FaultSpec"]

# The flip channel's salt: its counters are disjoint from the binary-word
# flips of :mod:`repro.faults.binary`.
_SALT_FLIP = 1


@dataclass(frozen=True)
class FaultSpec:
    """A seeded, deterministic stream-fault environment.

    Parameters
    ----------
    flip_rate:
        Per-bit Bernoulli probability of a soft-error flip on a stream wire
        (each clock cycle of each stream bit is upset independently), a real
        number in ``[0, 1]``; 0 faults nothing.  A flipped stream bit
        perturbs the encoded value by only ``1/N``.
    seed:
        Seed of the counter-hashed mask generator.  Same spec + same seed =>
        bit-identical faults everywhere, across representations and tilings.
    """

    flip_rate: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        rate = self.flip_rate
        # bool is an Integral, hence a Real; NaN fails the range test.
        if isinstance(rate, bool) or not isinstance(rate, numbers.Real) or not 0.0 <= rate <= 1.0:
            raise ValueError(f"flip_rate must be a real number in [0, 1], got {rate!r}")
        check_count("seed", self.seed, 0)

    def word_fault_share(self, n_bits: int) -> float:
        """Expected share of packed input words that carry a flip.

        A word of an ``n_bits`` stream holds ``min(n_bits, 64)`` cycles and
        is clean when none of them draws a flip.  Depends on the rate and
        the stream length alone; the engines pick their faulted evaluation
        path from it.
        """
        return 1.0 - (1.0 - self.flip_rate) ** min(n_bits, WORD_BITS)

    def masks(self, n_streams: int, taps: int, n_bits: int, offset: int = 0) -> np.ndarray:
        """The packed flip mask of one stream block, ``(n_streams, taps, ceil(n_bits / 64))``.

        Depends only on the global stream indices
        ``offset .. offset + n_streams - 1``; the tail word is masked.
        """
        return bernoulli_words(
            self.flip_rate, self.seed, _SALT_FLIP, n_streams, taps, n_bits, offset
        )

    def nonzero_masks(
        self, n_streams: int, taps: int, n_bits: int, offset: int = 0
    ) -> Tuple[np.ndarray, np.ndarray]:
        """The :meth:`masks` words that are not zero.

        Returns ``(index, flips)``: the ascending flat indices into
        ``(n_streams, taps, W)`` of the words that carry a flip, and those
        words.  Every other word of the block passes :meth:`apply`
        unchanged, so these are all a sparse fault path needs.
        """
        flips = self.masks(n_streams, taps, n_bits, offset).reshape(-1)
        index = np.flatnonzero(flips)
        return index, flips[index]

    def apply(self, prepared: np.ndarray, n_bits: int, offset: int = 0) -> np.ndarray:
        """Flip a prepared block of packed streams: ``prepared ^ masks``.

        ``prepared`` has shape ``(..., taps, W)`` packed words; leading axes
        are flattened in C order to assign global stream indices
        ``offset + i``.  Empty blocks (zero streams, zero taps or zero-length
        streams) and a zero rate pass through untouched -- a fault spec on
        nothing is a no-op, not an index error.  Otherwise returns a new
        array of the same shape and dtype; words that are not ``uint64``
        raise ``TypeError``.
        """
        arr = np.asarray(prepared)
        if self.flip_rate == 0.0 or arr.size == 0 or n_bits == 0:
            return arr
        if arr.dtype != np.uint64:
            raise TypeError(f"packed streams must be uint64 words, got {arr.dtype}")
        if arr.ndim < 2:
            raise ValueError(
                f"prepared streams must have shape (..., taps, words), got {arr.shape}"
            )
        n_streams = int(np.prod(arr.shape[:-2]))
        flips = self.masks(n_streams, arr.shape[-2], n_bits, offset)
        return (arr.reshape(flips.shape) ^ flips).reshape(arr.shape)
