"""Deterministic fault-mask generation: counter-hashed packed word masks.

The fault model of :mod:`repro.faults` is one packed 64-bit flip mask per
stream, XORed into its words (:meth:`repro.faults.FaultSpec.apply`).

The masks are *counter-based*: the random word at ``(stream, tap, word,
slice)`` is a SplitMix64 hash of that coordinate tuple and the spec's seed,
never a draw from sequential generator state.  This is what makes fault
injection deterministic under recomposition: the mask a stream receives
depends only on its global identity (its index in the flattened batch, plus
the caller-supplied ``offset``), not on tile boundaries, evaluation order,
the stream representation, or how many streams were faulted before it.
Tiled and untiled convolutions, packed and byte-per-bit streams, and
repeated ``dot()`` calls therefore all see bit-identical faulted streams.

Per-bit Bernoulli masks with arbitrary rate ``p`` are built by the standard
bit-slicing (Horner) combination of ``RATE_BITS`` independent uniform words:
writing ``p`` in binary as ``0.b1 b2 ... bK``, the accumulator is combined
MSB-last as ``acc = word | acc`` where ``b_i == 1`` and ``acc = word & acc``
where ``b_i == 0``, which yields exactly ``P(bit set) = p`` truncated to
``K`` bits of resolution per bit position, independently across positions.

A small rate starts with zero digits ``b1 .. bL`` (nine of them at 1e-3),
and those are the *last* Horner steps, all ANDs: the mask is
``s_1 & s_2 & ... & s_L & acc_L``, where ``acc_L`` combines the remaining
slices.  AND is associative and commutative, so :func:`bernoulli_words`
ANDs the ``L`` leading slices first.  A word where that gate is zero is zero
whatever ``acc_L`` holds, and every slice word is a hash of its own
coordinate, so ``acc_L`` is hashed only on the words that survive (12% at
1e-3) and ANDed in: the same bits with about a third of the hashing.  The
SplitMix64 rounds run in place on reused buffers.  The plain loop over every
slice and word is kept as the test oracle (``tests/fault_oracle.py``).
"""

from __future__ import annotations

import numpy as np

from ..bitstream.packed import mask_tail, words_for

__all__ = [
    "RATE_BITS",
    "splitmix64",
    "coordinate_words",
    "bernoulli_words",
]

#: Binary digits of the fault rate used by the Bernoulli bit-slicing scheme;
#: rates are realized with resolution ``2**-RATE_BITS`` (~6e-10 at 31 bits),
#: far below any physically meaningful fault-rate difference.
RATE_BITS = 31

_U64 = np.uint64
_GOLDEN = _U64(0x9E3779B97F4A7C15)
_MIX1 = _U64(0xBF58476D1CE4E5B9)
_MIX2 = _U64(0x94D049BB133111EB)


def _finalize(z: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """SplitMix64's mixing rounds on ``z`` (counters plus the golden step), in place.

    ``tmp`` is a work buffer of ``z``'s shape; uint64 array arithmetic wraps
    modulo ``2**64`` silently, as the finalizer needs.
    """
    np.right_shift(z, _U64(30), out=tmp)
    z ^= tmp
    z *= _MIX1
    np.right_shift(z, _U64(27), out=tmp)
    z ^= tmp
    z *= _MIX2
    np.right_shift(z, _U64(31), out=tmp)
    z ^= tmp
    return z


def splitmix64(x: np.ndarray) -> np.ndarray:
    """Vectorized SplitMix64 finalizer: uniform uint64 words from counters.

    This is the output function of the SplitMix64 generator (Steele et al.),
    whose designed use is exactly this: hashing sequential counter values
    into statistically independent 64-bit words.  Input must be uint64.
    """
    z = np.asarray(x + _GOLDEN, dtype=_U64)
    return _finalize(z, np.empty_like(z))


def coordinate_words(
    seed: int, salt: int, n_streams: int, taps: int, n_bits: int, offset: int = 0
) -> np.ndarray:
    """Base counter grid for one mask channel: shape ``(n_streams, taps, W)``.

    Every ``(stream, tap, word)`` cell holds a distinct uint64 counter derived
    from the *global* stream index ``offset + stream``; ``salt`` separates the
    mask channels (stream flips vs. binary-word flips) and the Bernoulli
    slices so no two channels ever reuse a hash input.
    """
    width = words_for(n_bits)
    stream_idx = np.arange(offset, offset + n_streams, dtype=np.uint64)
    tap_idx = np.arange(taps, dtype=np.uint64)
    word_idx = np.arange(width, dtype=np.uint64)
    flat = (
        stream_idx[:, np.newaxis, np.newaxis] * _U64(taps)
        + tap_idx[np.newaxis, :, np.newaxis]
    ) * _U64(max(width, 1)) + word_idx[np.newaxis, np.newaxis, :]
    # Fold seed and salt in through one mixing round so adjacent seeds do not
    # produce correlated counter grids.  The fold is computed in Python ints
    # modulo 2**64 (numpy uint64 *scalar* arithmetic warns on wraparound).
    mixed = (int(seed) * 0x632BE59BD9B4E019 + int(salt) * 0xD6E8FEB86659FD93) % (
        1 << 64
    )
    return flat * _GOLDEN + splitmix64(np.asarray([mixed], dtype=np.uint64))


def bernoulli_words(
    rate: float,
    seed: int,
    salt: int,
    n_streams: int,
    taps: int,
    n_bits: int,
    offset: int = 0,
) -> np.ndarray:
    """Per-bit Bernoulli(``rate``) packed masks, shape ``(n_streams, taps, W)``.

    Deterministic in ``(seed, salt, global stream index, tap, word)``; the
    tail word is pre-masked so downstream popcounts never see garbage bits.
    A ``rate`` of 0 returns all-zero words without hashing.
    """
    if not 0.0 <= rate <= 1.0:
        raise ValueError(f"fault rate must lie in [0, 1], got {rate}")
    width = words_for(n_bits)
    shape = (n_streams, taps, width)
    if rate == 0.0 or n_bits == 0 or n_streams == 0 or taps == 0:
        return np.zeros(shape, dtype=np.uint64)
    # Truncate the rate to RATE_BITS binary digits b1..bK (MSB first).
    scaled = int(round(rate * (1 << RATE_BITS)))
    scaled = min(max(scaled, 0), 1 << RATE_BITS)
    if scaled == 0:
        return np.zeros(shape, dtype=np.uint64)
    if scaled == 1 << RATE_BITS:
        return mask_tail(np.full(shape, _U64(0xFFFFFFFFFFFFFFFF)), n_bits)
    digits = [(scaled >> (RATE_BITS - 1 - i)) & 1 for i in range(RATE_BITS)]
    # Drop trailing zero digits: they only AND in extra words without
    # changing the realized probability.
    while digits and digits[-1] == 0:
        digits.pop()
    base = coordinate_words(seed, salt, n_streams, taps, n_bits, offset).reshape(-1)
    # The leading zero digits b_1..b_lead are the last Horner steps, all
    # ANDs, so they gate the rest (module docstring): AND them first and
    # hash the other slices only on the words that survive.
    lead = digits.index(1)
    if lead:
        gate = _slice_and(base, range(lead))
        alive = np.flatnonzero(gate)
        gate[alive] &= _horner(base[alive], digits, lead)
        out = gate
    else:
        out = _horner(base, digits, 0)
    return mask_tail(out.reshape(shape), n_bits)


def _slice_words(base: np.ndarray, i: int, out: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """Bernoulli slice ``i``'s uniform words at the counters ``base``, into ``out``.

    Slice offsets step by an odd stride, so no two slices share a hash
    input.  The offset and SplitMix64's golden step are folded into one
    scalar in Python ints modulo ``2**64`` (NumPy uint64 *scalar* sums warn
    on wraparound; the array sum wraps silently).
    """
    np.add(base, _U64((i * 0x3C6EF372FE94F82B + int(_GOLDEN)) % (1 << 64)), out=out)
    return _finalize(out, tmp)


def _slice_and(base: np.ndarray, slices) -> np.ndarray:
    """The AND of the given slices' words at the counters ``base``."""
    acc = np.empty_like(base)
    word, tmp = np.empty_like(base), np.empty_like(base)
    first, *rest = slices
    _slice_words(base, first, acc, tmp)
    for i in rest:
        acc &= _slice_words(base, i, word, tmp)
    return acc


def _horner(base: np.ndarray, digits, stop: int) -> np.ndarray:
    """Words whose bits are set with the probability ``digits[stop:]`` spell.

    The Horner combination, LSB digit first: after processing digit
    ``digits[i]`` the accumulator's set-probability is exactly the binary
    fraction ``0.digits[i] digits[i+1] ...``.  The last digit is 1 (trailing
    zeros were dropped), so the seed step ``acc = w | 0`` collapses to
    ``acc = w``.
    """
    acc = np.empty_like(base)
    word, tmp = np.empty_like(base), np.empty_like(base)
    _slice_words(base, len(digits) - 1, acc, tmp)
    for i in range(len(digits) - 2, stop - 1, -1):
        _slice_words(base, i, word, tmp)
        if digits[i]:
            acc |= word
        else:
            acc &= word
    return acc

