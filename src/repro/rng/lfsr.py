"""Linear-feedback shift registers (LFSRs).

LFSRs are the conventional pseudo-random number source of stochastic number
generators: an ``n``-bit maximal-length LFSR cycles through all ``2**n - 1``
non-zero states, providing a cheap, deterministic, uniformly distributed
number sequence.  Table 1 of the paper compares SNGs built from

* a single LFSR shared by both multiplier inputs (one copy plus a shifted
  version of the same register) -- the cheapest but most correlated option;
* two independent LFSRs with different seeds/polynomials;

against low-discrepancy and ramp-compare sources.

The implementation below is a Galois-configuration LFSR using the standard
maximal-length (primitive-polynomial) tap tables for register widths 2..24,
which covers every precision used anywhere in the paper (2 to 8 bits) with a
wide margin.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .sources import NumberSource

__all__ = [
    "MAXIMAL_TAPS",
    "ALTERNATE_TAPS",
    "LFSR",
    "LFSRSource",
    "RotatedLFSRSource",
]


#: Maximal-length feedback tap positions (exponents of the primitive feedback
#: polynomial, 1-indexed) from the standard Xilinx/XAPP052 table.  A register
#: of width ``n`` using ``MAXIMAL_TAPS[n]`` cycles through all ``2**n - 1``
#: non-zero states.
MAXIMAL_TAPS = {
    2: (2, 1),
    3: (3, 2),
    4: (4, 3),
    5: (5, 3),
    6: (6, 5),
    7: (7, 6),
    8: (8, 6, 5, 4),
    9: (9, 5),
    10: (10, 7),
    11: (11, 9),
    12: (12, 11, 10, 4),
    13: (13, 12, 11, 8),
    14: (14, 13, 12, 2),
    15: (15, 14),
    16: (16, 15, 13, 4),
    17: (17, 14),
    18: (18, 11),
    19: (19, 18, 17, 14),
    20: (20, 17),
    21: (21, 19),
    22: (22, 21),
    23: (23, 18),
    24: (24, 23, 22, 17),
}

#: A second, different primitive polynomial per register width, used when two
#: genuinely independent LFSRs are needed (the "Two LFSRs" scheme of Table 1).
#: Width 2 has only one primitive polynomial, so it falls back to a different
#: seed of the same polynomial.
ALTERNATE_TAPS = {
    3: (3, 1),
    4: (4, 1),
    5: (5, 2),
    6: (6, 1),
    7: (7, 1),
    8: (8, 4, 3, 2),
    9: (9, 4),
    10: (10, 3),
}


class LFSR:
    """A Galois-configuration linear-feedback shift register.

    Parameters
    ----------
    bits:
        Register width.  Must have an entry in :data:`MAXIMAL_TAPS` unless
        explicit ``taps`` are supplied.
    seed:
        Initial state; any non-zero value in ``[1, 2**bits - 1]``.
    taps:
        Optional explicit tap positions (polynomial exponents, 1-indexed).
        Defaults to the maximal-length taps.
    """

    def __init__(
        self,
        bits: int,
        seed: int = 1,
        taps: Sequence[int] | None = None,
    ):
        if bits < 2:
            raise ValueError("LFSR needs at least 2 bits")
        if taps is None:
            if bits not in MAXIMAL_TAPS:
                raise ValueError(
                    f"no maximal-length taps known for {bits}-bit LFSR; "
                    "pass explicit taps"
                )
            taps = MAXIMAL_TAPS[bits]
        if any(t < 1 or t > bits for t in taps):
            raise ValueError(f"tap positions must lie in [1, {bits}], got {taps}")
        seed = int(seed)
        mask = (1 << bits) - 1
        if seed & mask == 0:
            raise ValueError("LFSR seed must be non-zero")
        self.bits = int(bits)
        self.taps = tuple(int(t) for t in taps)
        self._seed = seed & mask
        # Galois feedback mask: one bit per polynomial exponent.
        self._feedback_mask = 0
        for tap in self.taps:
            self._feedback_mask |= 1 << (tap - 1)
        self._state = self._seed

    def reset(self) -> None:
        """Restore the register to its seed value."""
        self._state = self._seed

    def states(self, length: int) -> np.ndarray:
        """Return the next ``length`` states (starting from the current one)."""
        out = np.empty(length, dtype=np.int64)
        state = self._state
        feedback_mask = self._feedback_mask
        for i in range(length):
            out[i] = state
            lsb = state & 1
            state >>= 1
            if lsb:
                state ^= feedback_mask
        self._state = state
        return out


class LFSRSource(NumberSource):
    """A :class:`NumberSource` wrapping an LFSR.

    The register state is interpreted as the integer ``k`` and emitted as the
    value ``k / 2**bits``, the conventional comparator arrangement of Fig. 1c.
    Seeds are wrapped into the register's non-zero range so callers can pass
    any positive integer regardless of the register width.
    """

    def __init__(
        self,
        bits: int,
        seed: int = 1,
        taps: Sequence[int] | None = None,
    ):
        if seed < 1:
            raise ValueError("seed must be a positive integer")
        period = (1 << int(bits)) - 1
        wrapped_seed = ((int(seed) - 1) % period) + 1
        self._lfsr = LFSR(bits, seed=wrapped_seed, taps=taps)
        self.resolution_bits = int(bits)

    @property
    def lfsr(self) -> LFSR:
        """The underlying register (exposed for tests and ablations)."""
        return self._lfsr

    def sequence(self, length: int) -> np.ndarray:
        self._lfsr.reset()
        states = self._lfsr.states(length)
        return states.astype(np.float64) / (1 << self.resolution_bits)

    def reset(self) -> None:
        self._lfsr.reset()

    def __repr__(self) -> str:
        return f"LFSRSource(bits={self.resolution_bits}, seed={self._lfsr._seed})"


class RotatedLFSRSource(NumberSource):
    """The same LFSR register read through circularly rotated wires.

    This is the paper's cheapest Table 1 scheme ("one LFSR + shifted
    version"): the second SNG comparator is fed the *same* register, but with
    its output bits rotated by ``rotation`` positions -- a pure wiring
    permutation with zero hardware cost.  The resulting number sequence is a
    bit-reshuffled copy of the original and remains strongly correlated with
    it, which is why the scheme has the worst multiplier MSE.
    """

    def __init__(self, base: LFSRSource, rotation: int = 1):
        bits = base.resolution_bits
        if not 0 < rotation < bits:
            raise ValueError(f"rotation must lie in [1, {bits - 1}], got {rotation}")
        self._base = base
        self._rotation = int(rotation)
        self.resolution_bits = bits

    def sequence(self, length: int) -> np.ndarray:
        bits = self.resolution_bits
        rotation = self._rotation
        mask = (1 << bits) - 1
        self._base.reset()
        states = self._base.lfsr.states(length)
        self._base.reset()
        rotated = ((states >> rotation) | ((states & ((1 << rotation) - 1)) << (bits - rotation))) & mask
        return rotated.astype(np.float64) / (1 << bits)

    def reset(self) -> None:
        self._base.reset()

    def __repr__(self) -> str:
        return f"RotatedLFSRSource(rotation={self._rotation}, base={self._base!r})"
