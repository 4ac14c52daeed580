"""An independent reference for the counter-hashed fault masks.

:mod:`repro.faults.masks` builds its Bernoulli masks with in-place hashing on
reused buffers and hashes most slices only on the words that survive the
rate's leading-zero slices.  This module keeps the plain definition those
shortcuts must reproduce bit for bit: the allocating SplitMix64 finalizer,
the counter grid, and the Horner loop that combines every slice on every
word, MSB digit last.  :func:`masks` gives a spec's flip mask like
:meth:`repro.faults.FaultSpec.masks`, so the byte-per-bit engine oracle
(``tests/sc_oracle.py``) injects faults without the library's generator.
:func:`sparse_spec` scales a spec's flip rate to a chosen share of faulted
words, so the differential suites can put faults just below the engines'
corrections crossover at any precision.
"""

import dataclasses

import numpy as np

from repro.bitstream.packed import mask_tail, words_for
from repro.faults.masks import RATE_BITS
from repro.faults.spec import _SALT_FLIP

_U64 = np.uint64
_GOLDEN = _U64(0x9E3779B97F4A7C15)
_MIX1 = _U64(0xBF58476D1CE4E5B9)
_MIX2 = _U64(0x94D049BB133111EB)


def splitmix64(x):
    """SplitMix64 finalizer of uint64 counters."""
    z = (x + _GOLDEN).astype(_U64)
    z = (z ^ (z >> _U64(30))) * _MIX1
    z = (z ^ (z >> _U64(27))) * _MIX2
    return z ^ (z >> _U64(31))


def coordinate_words(seed, salt, n_streams, taps, n_bits, offset=0):
    """Counter grid ``(n_streams, taps, W)`` of one mask channel."""
    width = words_for(n_bits)
    stream_idx = np.arange(offset, offset + n_streams, dtype=np.uint64)
    tap_idx = np.arange(taps, dtype=np.uint64)
    word_idx = np.arange(width, dtype=np.uint64)
    flat = (
        stream_idx[:, np.newaxis, np.newaxis] * _U64(taps)
        + tap_idx[np.newaxis, :, np.newaxis]
    ) * _U64(max(width, 1)) + word_idx[np.newaxis, np.newaxis, :]
    mixed = (int(seed) * 0x632BE59BD9B4E019 + int(salt) * 0xD6E8FEB86659FD93) % (
        1 << 64
    )
    return flat * _GOLDEN + splitmix64(np.asarray([mixed], dtype=np.uint64))


def bernoulli_words(rate, seed, salt, n_streams, taps, n_bits, offset=0):
    """Per-bit Bernoulli(``rate``) masks: every slice hashed on every word."""
    if not 0.0 <= rate <= 1.0:
        raise ValueError(f"fault rate must lie in [0, 1], got {rate}")
    width = words_for(n_bits)
    shape = (n_streams, taps, width)
    if rate == 0.0 or n_bits == 0 or n_streams == 0 or taps == 0:
        return np.zeros(shape, dtype=np.uint64)
    scaled = int(round(rate * (1 << RATE_BITS)))
    scaled = min(max(scaled, 0), 1 << RATE_BITS)
    if scaled == 0:
        return np.zeros(shape, dtype=np.uint64)
    if scaled == 1 << RATE_BITS:
        return mask_tail(np.full(shape, _U64(0xFFFFFFFFFFFFFFFF)), n_bits)
    digits = [(scaled >> (RATE_BITS - 1 - i)) & 1 for i in range(RATE_BITS)]
    while digits and digits[-1] == 0:
        digits.pop()
    base = coordinate_words(seed, salt, n_streams, taps, n_bits, offset)

    def slice_base(i):
        return base + _U64((i * 0x3C6EF372FE94F82B) % (1 << 64))

    acc = splitmix64(slice_base(len(digits) - 1))
    for i in range(len(digits) - 2, -1, -1):
        word = splitmix64(slice_base(i))
        if digits[i]:
            acc = word | acc
        else:
            acc = word & acc
    return mask_tail(acc, n_bits)


def masks(spec, n_streams, taps, n_bits, offset=0):
    """The flip mask ``(n_streams, taps, W)`` of ``spec``."""
    return bernoulli_words(spec.flip_rate, spec.seed, _SALT_FLIP, n_streams, taps, n_bits, offset)


def sparse_spec(spec, n_bits, share):
    """``spec`` with its flip rate scaled so that the expected share of
    faulted words of an ``n_bits`` stream (``FaultSpec.word_fault_share``)
    lies just below ``share``."""

    def scaled(factor):
        return dataclasses.replace(spec, flip_rate=spec.flip_rate * factor)

    low, high = 0.0, 1.0 / spec.flip_rate
    for _ in range(50):
        middle = (low + high) / 2
        if scaled(middle).word_fault_share(n_bits) < share:
            low = middle
        else:
            high = middle
    return scaled(low)
