"""Bit flips in binary two's-complement words: the baseline fault model.

The paper's graceful-degradation argument needs a *matched* binary
comparison: the same per-bit soft-error rate applied to the words of a
conventional fixed-point pipeline.  A stochastic stream bit carries weight
``1/N`` wherever it flips; a two's-complement word bit carries weight
``2**k`` -- up to the sign bit -- so the same physical upset rate produces
wildly different value errors.  :func:`flip_binary_words` implements that
baseline injection with the *same* counter-hashed mask machinery as the
stream faults (:mod:`repro.faults.masks`), so both sides of the comparison
are seeded, deterministic, and rate-matched by construction.
"""

from __future__ import annotations

import numpy as np

from .masks import bernoulli_words

__all__ = ["flip_binary_words"]

#: Salt separating the binary-word flip channel from the stream flips.
_SALT_BINARY = 101


def flip_binary_words(
    values: np.ndarray,
    bits: int,
    rate: float,
    seed: int,
    offset: int = 0,
) -> np.ndarray:
    """Flip bits of signed integers' two's-complement representations.

    Parameters
    ----------
    values:
        Signed integer array of any shape.  Each element is interpreted as a
        ``bits``-wide two's-complement word (elements must fit that width).
    bits:
        Word width in bits (sign bit included), e.g. a binary engine's
        accumulator width.  At most 63 so the result round-trips through
        int64.
    rate:
        Per-bit Bernoulli flip probability -- pass the *same* rate as the
        stream-fault spec to rate-match the comparison.
    seed:
        Mask seed; same ``(seed, offset)`` always flips the same bits.
    offset:
        Global index of the first element (flattened C order), mirroring the
        tiling contract of :meth:`repro.faults.FaultSpec.apply`.

    Returns
    -------
    Flipped values as int64, re-interpreted from the faulted two's-complement
    words (a flipped sign bit swings the value by ``2**(bits-1)`` -- the
    catastrophe the stochastic encoding avoids).
    """
    values = np.asarray(values)
    if not np.issubdtype(values.dtype, np.integer):
        raise TypeError(f"values must be integers, got dtype {values.dtype}")
    bits = int(bits)
    if not 1 <= bits <= 63:
        raise ValueError(f"word width must lie in [1, 63] bits, got {bits}")
    flat = values.astype(np.int64).ravel()
    half = np.int64(1) << np.int64(bits - 1)
    if flat.size and (flat.min() < -half or flat.max() >= half):
        raise ValueError(
            f"values exceed the {bits}-bit two's-complement range "
            f"[{-int(half)}, {int(half) - 1}]"
        )
    if rate == 0.0 or flat.size == 0:
        return values.astype(np.int64)
    # One mask "stream" per element whose first `bits` mask bits flip the
    # word: reuse the Bernoulli generator with n_bits = word width.  Width
    # <= 63 < 64 means one uint64 word per element.
    masks = bernoulli_words(
        rate, seed, _SALT_BINARY, flat.size, 1, bits, offset
    ).reshape(flat.size)
    wrap = np.uint64(1) << np.uint64(bits)
    words = flat.view(np.uint64) & (wrap - np.uint64(1))
    flipped = words ^ masks
    # Sign-extend back from `bits` wide to int64.
    signed = flipped.astype(np.int64)
    signed = np.where(signed >= int(half), signed - np.int64(1 << bits), signed)
    return signed.reshape(values.shape)
