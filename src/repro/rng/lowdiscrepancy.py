"""Low-discrepancy number sources.

Alaghi & Hayes ("Fast and accurate computation using stochastic circuits",
DATE 2014 -- reference [4] of the paper) showed that replacing the LFSR of an
SNG with a *low-discrepancy* sequence turns stochastic fluctuation error from
``O(1/sqrt(N))`` into ``O(1/N)``: the ones of the generated stream are spread
as evenly as possible, so every prefix of the stream is a good estimate of
the encoded value.

Two classical constructions are provided:

* :class:`VanDerCorputSource` -- the base-2 van der Corput sequence, i.e. the
  bit-reversed counter.  This is the sequence normally used in hardware
  because bit-reversal of a counter is free (just wire permutation).
* :class:`SobolSource` -- the first dimensions of a Sobol sequence built from
  direction numbers; dimension 0 coincides with van der Corput.  Different
  dimensions provide the mutually uncorrelated sources needed when several
  independent streams must be generated at once (e.g. 25 kernel weights).
"""

from __future__ import annotations

import numpy as np

from ..utils.checks import check_count
from .sources import NumberSource

__all__ = ["bit_reverse", "VanDerCorputSource", "SobolSource"]


def bit_reverse(values: np.ndarray, bits: int) -> np.ndarray:
    """Reverse the ``bits`` low-order bits of each integer in ``values``."""
    values = np.asarray(values, dtype=np.int64)
    out = np.zeros_like(values)
    for i in range(bits):
        out |= ((values >> i) & 1) << (bits - 1 - i)
    return out


class VanDerCorputSource(NumberSource):
    """Base-2 van der Corput (bit-reversed counter) number source.

    ``phase`` offsets the counter start, which is the cheap hardware trick for
    deriving several "different" low-discrepancy sources from one counter.
    """

    def __init__(self, bits: int, phase: int = 0) -> None:
        self.resolution_bits = check_count("bits", bits)
        self._phase = int(phase) % (1 << bits)

    def sequence(self, length: int) -> np.ndarray:
        n = 1 << self.resolution_bits
        k = (np.arange(length, dtype=np.int64) + self._phase) % n
        return bit_reverse(k, self.resolution_bits).astype(np.float64) / n

    def __repr__(self) -> str:
        return f"VanDerCorputSource(bits={self.resolution_bits}, phase={self._phase})"


# Primitive polynomials (degree, coefficient bits) and initial direction
# numbers for the first 8 Sobol dimensions, from Joe & Kuo's tables.  Entry i
# is (degree s, polynomial coefficients a, initial m values).
_SOBOL_PARAMS = [
    (1, 0, (1,)),
    (2, 1, (1, 3)),
    (3, 1, (1, 3, 1)),
    (3, 2, (1, 1, 1)),
    (4, 1, (1, 1, 3, 3)),
    (4, 4, (1, 3, 5, 13)),
    (5, 2, (1, 1, 5, 5, 17)),
    (5, 4, (1, 1, 5, 5, 5)),
]


def _sobol_direction_numbers(dimension: int, bits: int) -> np.ndarray:
    """Direction numbers ``v_j`` (as integers scaled by 2**bits) for one dimension."""
    if dimension == 0:
        # First Sobol dimension: v_j = 1 / 2**(j+1)  (van der Corput).
        return np.array([1 << (bits - 1 - j) for j in range(bits)], dtype=np.int64)
    s, a, m_init = _SOBOL_PARAMS[dimension]
    m = list(m_init)
    for j in range(s, bits):
        new = m[j - s] ^ (m[j - s] << s)
        for k in range(1, s):
            if (a >> (s - 1 - k)) & 1:
                new ^= m[j - k] << k
        m.append(new)
    return np.array(
        [m[j] << (bits - 1 - j) for j in range(bits)], dtype=np.int64
    )


class SobolSource(NumberSource):
    """One dimension of a Sobol low-discrepancy sequence.

    Dimension 0 equals the van der Corput sequence; higher dimensions provide
    additional sequences that are jointly well distributed, which is what a
    bank of weight SNGs needs.  Up to 8 dimensions are supported, which is
    ample for the paper's circuits (the 25 weight streams of a 5x5 kernel are
    generated from phase-shifted copies, see :mod:`repro.hybrid`).
    """

    def __init__(self, bits: int, dimension: int = 0) -> None:
        if bits < 1:
            raise ValueError("bits must be >= 1")
        if not 0 <= dimension < len(_SOBOL_PARAMS):
            raise ValueError(
                f"dimension must be in [0, {len(_SOBOL_PARAMS) - 1}], got {dimension}"
            )
        self.resolution_bits = int(bits)
        self.dimension = int(dimension)
        self._directions = _sobol_direction_numbers(dimension, bits)

    def sequence(self, length: int) -> np.ndarray:
        n = 1 << self.resolution_bits
        out = np.empty(length, dtype=np.float64)
        x = 0
        for i in range(length):
            out[i] = x / n
            # Gray-code construction: flip the direction of the lowest zero bit of i.
            c = 0
            value = i
            while value & 1:
                value >>= 1
                c += 1
            if c < self.resolution_bits:
                x ^= int(self._directions[c])
            else:  # sequence wrapped past its native resolution; restart
                x = 0
        return out

    def __repr__(self) -> str:
        return f"SobolSource(bits={self.resolution_bits}, dimension={self.dimension})"
