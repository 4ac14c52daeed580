"""Packed-word bit-stream backend: 64 bits per machine word, popcount kernels.

The unpacked :class:`~repro.bitstream.bitstream.Bitstream` representation
stores every bit as one ``uint8`` byte, which is convenient but makes the
bit-exact simulation of long streams (``2**precision`` cycles per kernel
evaluation, across hundreds of dot-product engines) the dominant wall-clock
cost of the MNIST accuracy path.  This module provides the standard
SC-simulator remedy: bits are packed 64-per-``uint64`` word and every gate of
the stochastic datapath becomes a word-level bitwise operation, so one numpy
instruction simulates 64 clock cycles of 1 gate (or, on batched arrays, 64
cycles of thousands of gates).

Layout
------
A stream of ``n_bits`` bits occupies ``ceil(n_bits / 64)`` words.  Bit ``i``
of the stream lives in word ``i // 64`` at bit position ``i % 64`` (LSB
first), which is exactly what ``np.packbits(..., bitorder="little")`` produces
when the byte array is viewed as little-endian ``uint64``.  Unused positions
in the final ("tail") word are always zero -- every kernel below preserves
that invariant, and kernels that can set bits past the stream length (NOT,
the alternating pad) end with :func:`mask_tail`.

Contents
--------
* :func:`pack_bits` / :func:`unpack_bits` -- lossless converters between
  uint8 bit arrays (last axis = time) and uint64 word arrays;
* :func:`pack_comparator_output` -- comparator outputs packed straight into
  words, the shared core of the SNGs;
* word kernels for the SC datapath: NOT, the one-cycle delay, the TFF state
  scan and TFF adder (a word-parallel prefix-parity scan), transition counts
  and popcount.

The engines keep their streams as plain ``uint64`` arrays; the byte-per-bit
:class:`~repro.bitstream.bitstream.Bitstream` is the object form.

All batched kernels follow the same convention as the unpacked ones: streams
live on the *last* axis, which here holds words instead of bits, and an
explicit ``n_bits`` carries the true stream length.
"""

from __future__ import annotations

import sys

import numpy as np

__all__ = [
    "WORD_BITS",
    "words_for",
    "pack_bits",
    "pack_comparator_output",
    "unpack_bits",
    "mask_tail",
    "extend_periodic",
    "word_popcount",
    "packed_popcount",
    "packed_not",
    "packed_alternating",
    "packed_delay",
    "packed_transition_count",
    "packed_toggle_states",
    "packed_tff_add",
]

#: Number of stream bits stored per machine word.
WORD_BITS = 64

_ALL_ONES = np.uint64(0xFFFFFFFFFFFFFFFF)


def words_for(n_bits: int) -> int:
    """Number of uint64 words needed to hold ``n_bits`` stream bits."""
    if n_bits < 0:
        raise ValueError(f"n_bits must be non-negative, got {n_bits}")
    return (int(n_bits) + WORD_BITS - 1) // WORD_BITS


def _as_words(words: np.ndarray) -> np.ndarray:
    arr = np.asarray(words)
    if arr.dtype != np.uint64:
        raise TypeError(f"packed words must be uint64, got {arr.dtype}")
    return arr


def _native_words(byte_view: np.ndarray) -> np.ndarray:
    """Reinterpret a little-endian byte array as uint64 words."""
    words = byte_view.view(np.uint64)
    if sys.byteorder == "big":  # pragma: no cover - exercised on s390x etc. only
        words = words.byteswap()
    return words


def pack_bits(bits: np.ndarray) -> np.ndarray:
    """Pack a 0/1 bit array (time on the last axis) into uint64 words.

    ``bits`` of shape ``(..., n)`` becomes ``(..., ceil(n / 64))`` words with
    bit ``i`` stored LSB-first at word ``i // 64``, position ``i % 64``; tail
    positions are zero.  Accepts uint8 or bool input.
    """
    arr = np.asarray(bits)
    if arr.dtype == np.bool_:
        arr = arr.view(np.uint8)
    elif arr.dtype != np.uint8:
        arr = arr.astype(np.uint8)
    n = arr.shape[-1]
    w = words_for(n)
    packed = np.packbits(arr, axis=-1, bitorder="little")  # (..., ceil(n/8))
    if packed.shape[-1] == w * 8:
        byte_view = np.ascontiguousarray(packed)
    else:
        byte_view = np.zeros(arr.shape[:-1] + (w * 8,), dtype=np.uint8)
        byte_view[..., : packed.shape[-1]] = packed
    return _native_words(byte_view)


def pack_comparator_output(
    reference: np.ndarray, thresholds: np.ndarray
) -> np.ndarray:
    """Pack the comparator matrix ``reference < threshold`` straight into words.

    ``reference`` is the 1-D number-source sequence (one value per clock
    cycle) and ``thresholds`` the target probabilities, any shape; the result
    has shape ``thresholds.shape + (ceil(len(reference) / 64),)``.  The
    comparison is evaluated chunk by chunk over the flattened thresholds so
    the transient unpacked bit matrix stays within a few MiB regardless of
    batch size.  This is the shared packing core of every SNG-style
    generator (comparator SNGs, the ramp-compare converter).
    """
    reference = np.asarray(reference, dtype=np.float64)
    thresholds = np.asarray(thresholds, dtype=np.float64)
    length = reference.shape[-1]
    flat = thresholds.reshape(-1)
    words = np.empty((flat.size, words_for(length)), dtype=np.uint64)
    chunk = max(1, (1 << 23) // max(length, 1))
    for start in range(0, flat.size, chunk):
        block = flat[start : start + chunk]
        words[start : start + chunk] = pack_bits(reference < block[:, np.newaxis])
    return words.reshape(thresholds.shape + (words.shape[-1],))


def unpack_bits(words: np.ndarray, n_bits: int) -> np.ndarray:
    """Unpack uint64 words back into a uint8 0/1 array of ``n_bits`` bits."""
    arr = np.ascontiguousarray(_as_words(words))
    if arr.shape[-1] != words_for(n_bits):
        raise ValueError(
            f"expected {words_for(n_bits)} words for {n_bits} bits, "
            f"got {arr.shape[-1]}"
        )
    if n_bits == 0:
        return np.zeros(arr.shape[:-1] + (0,), dtype=np.uint8)
    if sys.byteorder == "big":  # pragma: no cover
        arr = arr.byteswap()
    byte_view = arr.view(np.uint8)
    return np.unpackbits(byte_view, axis=-1, bitorder="little", count=n_bits)


def mask_tail(words: np.ndarray, n_bits: int) -> np.ndarray:
    """Zero the unused positions of the tail word (in place; returns ``words``)."""
    arr = _as_words(words)
    rem = n_bits % WORD_BITS
    if rem and arr.shape[-1]:
        arr[..., -1] &= np.uint64((1 << rem) - 1)
    return arr


def extend_periodic(
    bits: np.ndarray, n_bits: int, transient: int, period: int
) -> np.ndarray:
    """Extend an eventually-periodic bit prefix to ``n_bits`` positions.

    ``bits`` (time on the last axis) must hold at least the first
    ``transient + period`` positions of the sequence; the result repeats the
    ``period``-long cycle after the transient, so position ``t >= transient``
    takes the value at ``transient + (t - transient) % period``.  This is the
    wrap kernel behind closed-form LFSR resolution in the packed netlist
    simulator: an autonomous register core is iterated only until its state
    repeats, and the recorded waveforms are extended to the full run length
    here.
    """
    arr = np.asarray(bits)
    if transient < 0:
        raise ValueError(f"transient must be non-negative, got {transient}")
    if period < 1:
        raise ValueError(f"period must be positive, got {period}")
    if arr.shape[-1] < transient + period:
        raise ValueError(
            f"need at least transient + period = {transient + period} "
            f"positions, got {arr.shape[-1]}"
        )
    idx = np.arange(int(n_bits))
    tail = idx >= transient
    idx[tail] = transient + (idx[tail] - transient) % period
    return arr[..., idx]


if hasattr(np, "bitwise_count"):

    def word_popcount(words: np.ndarray) -> np.ndarray:
        """Ones-count of every uint64 word, as uint8 of the same shape."""
        return np.bitwise_count(words)

else:  # pragma: no cover - numpy < 2.0 fallback
    _POPCOUNT_LUT = np.array(
        [bin(i).count("1") for i in range(256)], dtype=np.uint8
    )

    def word_popcount(words: np.ndarray) -> np.ndarray:
        """Ones-count of every uint64 word, as uint8 of the same shape."""
        byte_view = np.ascontiguousarray(words).view(np.uint8)
        counts = _POPCOUNT_LUT[byte_view]
        return counts.reshape(words.shape + (8,)).sum(axis=-1, dtype=np.uint8)


def packed_popcount(words: np.ndarray) -> np.ndarray:
    """Ones-count of each packed stream (sums the word axis, returns int64)."""
    counts = word_popcount(_as_words(words))
    width = counts.shape[-1]
    if width == 0:
        return np.zeros(counts.shape[:-1], dtype=np.int64)
    if width > 16:
        return counts.sum(axis=-1, dtype=np.int64)
    # Unrolled accumulation: ufunc.reduce over a short strided last axis is
    # several times slower than summing word slices on batched count tensors.
    # Accumulate in uint16 (max 16 words * 64 ones = 1024 fits comfortably)
    # to quarter the memory traffic, then widen once.
    total = counts[..., 0].astype(np.uint16)
    for j in range(1, width):
        total += counts[..., j]
    return total.astype(np.int64)


def packed_not(words: np.ndarray, n_bits: int) -> np.ndarray:
    """Bitwise NOT of packed stream(s), with the tail word re-masked."""
    return mask_tail(~_as_words(words), n_bits)


def packed_alternating(n_bits: int) -> np.ndarray:
    """The packed ``1010...`` stream (bit 1 at even cycles): density exactly 0.5.

    This is the bipolar-zero stream used to pad adder-tree inputs -- an
    all-zeros pad would encode bipolar -1 and bias the scaled sum.
    """
    words = np.full(words_for(n_bits), np.uint64(0x5555555555555555), dtype=np.uint64)
    return mask_tail(words, n_bits)


def packed_delay(words: np.ndarray, n_bits: int, fill: int = 0) -> np.ndarray:
    """Delay packed stream(s) by one cycle: output bit ``t`` is input bit ``t-1``.

    ``fill`` (0 or 1) supplies the value seen at cycle 0 -- exactly the Q
    waveform of a D flip-flop with ``initial_state=fill`` whose D input is
    ``words``.  Works on batched arrays (words on the last axis).
    """
    if fill not in (0, 1):
        raise ValueError(f"fill must be 0 or 1, got {fill}")
    w = _as_words(words)
    if w.shape[-1] == 0:
        return w.copy()
    out = w << np.uint64(1)
    out[..., 1:] |= w[..., :-1] >> np.uint64(WORD_BITS - 1)
    out[..., 0] |= np.uint64(fill)
    return mask_tail(out, n_bits)


def packed_transition_count(words: np.ndarray, n_bits: int) -> np.ndarray:
    """Number of value changes between consecutive cycles of each stream.

    The word kernel behind activity extraction: XOR each stream with its
    one-cycle-delayed self and popcount, i.e. ``popcount(w ^ (w >> 1))``
    evaluated across word boundaries.  Cycle 0 has no predecessor and never
    counts as a transition.  Returns int64 counts (word axis reduced).
    """
    w = _as_words(words)
    if n_bits <= 1 or w.shape[-1] == 0:
        return np.zeros(w.shape[:-1], dtype=np.int64)
    diff = w ^ packed_delay(w, n_bits, fill=0)
    diff[..., 0] &= np.uint64(0xFFFFFFFFFFFFFFFE)  # cycle 0: no predecessor
    return packed_popcount(diff)


def packed_toggle_states(
    trigger: np.ndarray, n_bits: int, initial_state: int = 0
) -> np.ndarray:
    """Packed counterpart of :func:`repro.sc.elements.flipflops.toggle_states`.

    Returns, for every stream position, the TFF state *seen at* that cycle
    (the parity of trigger ones strictly before it, XOR ``initial_state``).
    The sequential scan is computed without unpacking: an in-word prefix-XOR
    ladder (log2(64) shifted XORs) produces the inclusive bit-parity prefix of
    each word, whose top bit is the word's total parity; an exclusive XOR
    accumulation across the word axis then supplies each word's carry-in.
    """
    if initial_state not in (0, 1):
        raise ValueError(f"initial_state must be 0 or 1, got {initial_state}")
    t = _as_words(trigger)
    prefix = t.astype(np.uint64, copy=True)
    for shift in (1, 2, 4, 8, 16, 32):
        prefix ^= prefix << np.uint64(shift)
    # In-word exclusive prefix: shift the inclusive prefix up one position.
    exclusive = prefix << np.uint64(1)
    word_parity = prefix >> np.uint64(WORD_BITS - 1)
    carry = np.bitwise_xor.accumulate(word_parity, axis=-1) ^ word_parity
    flip = (carry ^ np.uint64(initial_state)) & np.uint64(1)
    state = exclusive ^ (flip * _ALL_ONES)
    return mask_tail(state, n_bits)


def packed_tff_add(
    x: np.ndarray, y: np.ndarray, n_bits: int, initial_state: int = 0
) -> np.ndarray:
    """Packed TFF-based scaled addition, bit-identical to :func:`tff_add`."""
    xw = _as_words(x)
    disagree = xw ^ _as_words(y)
    state = packed_toggle_states(disagree, n_bits, initial_state)
    return (state & disagree) | (xw & ~disagree)

