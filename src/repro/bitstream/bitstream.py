"""The :class:`Bitstream` container: one stochastic bit-stream, one byte per bit.

A stochastic number (SN) is a finite sequence of bits whose ones-density
encodes a value (see :mod:`repro.bitstream.encoding`).  This module wraps a
numpy ``uint8`` array of 0/1 with the bookkeeping the element functions and
the examples need:

* the encoding (unipolar / bipolar) used to interpret the ones-density;
* constructors from explicit bits (``"0101"`` strings as printed in the
  paper's figures, arrays), from Bernoulli draws and from exact counts;
* estimation of the encoded value.

Streams are immutable: every helper returns a new :class:`Bitstream`.  The
engines and the netlist simulator never build these objects -- they run
word kernels on plain ``uint64`` arrays (:mod:`repro.bitstream.packed`);
:func:`~repro.bitstream.packed.pack_bits` converts a stream's ``bits``
losslessly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .encoding import (
    BIPOLAR,
    UNIPOLAR,
    from_probability,
    to_probability,
)

__all__ = ["Bitstream"]

BitsLike = Union[str, Sequence[int], np.ndarray, "Bitstream"]


def _coerce_bits(bits: BitsLike) -> np.ndarray:
    """Normalize any accepted bit container into a 1-D uint8 array of 0/1."""
    if isinstance(bits, Bitstream):
        return bits.bits.copy()
    if isinstance(bits, str):
        cleaned = bits.replace(" ", "").replace("_", "")
        if not cleaned or any(c not in "01" for c in cleaned):
            raise ValueError(f"bit string must contain only 0/1, got {bits!r}")
        return np.frombuffer(cleaned.encode("ascii"), dtype=np.uint8) - ord("0")
    arr = np.asarray(bits)
    if arr.ndim != 1:
        raise ValueError(f"bits must be one-dimensional, got shape {arr.shape}")
    if arr.dtype == np.bool_:
        return arr.astype(np.uint8)
    arr = arr.astype(np.int64)
    if np.any((arr != 0) & (arr != 1)):
        raise ValueError("bits must be 0 or 1")
    return arr.astype(np.uint8)


@dataclass(frozen=True)
class Bitstream:
    """A finite stochastic bit-stream.

    Parameters
    ----------
    bits:
        The bit values, any of: a ``"0101 0011"`` style string (spaces and
        underscores ignored), a sequence of 0/1 integers, a boolean / integer
        numpy array, or another :class:`Bitstream`.
    encoding:
        ``"unipolar"`` (default) or ``"bipolar"``; only affects how
        :attr:`value` interprets the ones-density.
    """

    bits: np.ndarray
    encoding: str = UNIPOLAR

    def __init__(self, bits: BitsLike, encoding: str = UNIPOLAR) -> None:
        if encoding not in (UNIPOLAR, BIPOLAR):
            raise ValueError(f"unknown encoding {encoding!r}")
        object.__setattr__(self, "bits", _coerce_bits(bits))
        object.__setattr__(self, "encoding", encoding)

    # ------------------------------------------------------------------ #
    # constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def from_random(
        cls,
        value: float,
        length: int,
        rng: np.random.Generator | int | None = None,
        encoding: str = UNIPOLAR,
    ) -> "Bitstream":
        """Bernoulli-sample a stream whose expected density encodes ``value``.

        This mirrors the idealized "random bit-stream" configurations used in
        Tables 1 and 2; deterministic generators live in :mod:`repro.rng`.
        """
        if not isinstance(rng, np.random.Generator):
            rng = np.random.default_rng(rng)
        p = float(to_probability(value, encoding))
        bits = (rng.random(length) < p).astype(np.uint8)
        return cls(bits, encoding=encoding)

    @classmethod
    def from_exact(
        cls, value: float, length: int, encoding: str = UNIPOLAR
    ) -> "Bitstream":
        """Build a stream whose ones-count is exactly ``floor(p * length + 0.5)``.

        Half-way counts round *up* (``floor(p * length + 0.5)``) rather than
        to-nearest-even: Python's ``round`` would under-count the ones of e.g.
        value 0.5 at odd lengths, biasing every exactly-representable midpoint
        downward.  Ones are placed at the front of the stream; combine with a
        permutation or use :mod:`repro.rng` generators when bit ordering
        matters.
        """
        p = float(to_probability(value, encoding))
        k = min(int(np.floor(p * length + 0.5)), length)
        bits = np.zeros(length, dtype=np.uint8)
        bits[:k] = 1
        return cls(bits, encoding=encoding)

    # ------------------------------------------------------------------ #
    # interpretation
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return int(self.bits.shape[0])

    @property
    def ones(self) -> int:
        """Number of ``1`` bits in the stream."""
        return int(self.bits.sum())

    @property
    def probability(self) -> float:
        """Empirical ones-density ``ones / length``."""
        if len(self) == 0:
            raise ValueError("empty bit-stream has no probability")
        return self.ones / len(self)

    @property
    def value(self) -> float:
        """The encoded value as a float (unipolar ``p`` or bipolar ``2p - 1``)."""
        return float(from_probability(self.probability, self.encoding))

    def permute(self, rng: np.random.Generator | int | None = None) -> "Bitstream":
        """Randomly permute bit positions (value preserved, correlation broken)."""
        if not isinstance(rng, np.random.Generator):
            rng = np.random.default_rng(rng)
        return Bitstream(rng.permutation(self.bits), self.encoding)

    def to_string(self, group: int = 4) -> str:
        """Render as a grouped ``"0110 0011"`` string like the paper's figures."""
        text = "".join(str(int(b)) for b in self.bits)
        if group <= 0:
            return text
        return " ".join(text[i : i + group] for i in range(0, len(text), group))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Bitstream):
            return NotImplemented
        return (
            self.encoding == other.encoding
            and len(self) == len(other)
            and bool(np.array_equal(self.bits, other.bits))
        )

    def __hash__(self) -> int:  # frozen dataclass with ndarray needs a manual hash
        return hash((self.encoding, self.bits.tobytes()))

    def __repr__(self) -> str:
        preview = self.to_string() if len(self) <= 32 else self.to_string()[:40] + "..."
        return (
            f"Bitstream({preview!r}, encoding={self.encoding!r}, "
            f"value={self.value:.6g}, length={len(self)})"
        )
