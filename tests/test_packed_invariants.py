"""Property-based invariants of the packed word kernels (hypothesis).

Complements the differential suite: instead of comparing against the unpacked
reference point-by-point, these tests assert the *invariants* every
well-formed packed stream must satisfy -- ones preservation through packing,
a spotless tail word after every kernel, and edge cases (empty and length-1
streams) behaving exactly like the byte-per-bit :class:`Bitstream`.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.bitstream import (
    WORD_BITS,
    Bitstream,
    mask_tail,
    pack_bits,
    packed_alternating,
    packed_delay,
    packed_not,
    packed_popcount,
    packed_tff_add,
    packed_toggle_states,
    unpack_bits,
    words_for,
)
from repro.faults import FaultSpec

lengths = st.integers(min_value=1, max_value=300)
values = st.floats(min_value=0.0, max_value=1.0)


def tail_is_clear(words: np.ndarray, n_bits: int) -> bool:
    """The tail-word invariant: no bit past ``n_bits`` is set.

    Every kernel must return words whose unused tail positions are zero --
    otherwise a later :func:`packed_popcount` would count garbage bits.
    Kernels that can *set* bits past the stream length (NOT, the alternating
    pad) must therefore end with :func:`mask_tail`, and fault masks are
    generated with a clear tail.
    """
    rem = int(n_bits) % WORD_BITS
    if rem == 0 or words.shape[-1] == 0:
        return True
    return not bool(np.any(words[..., -1] >> np.uint64(rem)))


class TestValuePreservation:
    @given(values, lengths, st.integers(0, 1000))
    @settings(max_examples=40, deadline=None)
    def test_permute_preserves_ones(self, value, length, seed):
        stream = Bitstream.from_random(value, length, rng=3)
        words = pack_bits(stream.permute(rng=seed).bits)
        assert packed_popcount(words) == stream.ones
        assert tail_is_clear(words, length)

    @given(values, lengths)
    @settings(max_examples=40, deadline=None)
    def test_round_trip_and_complement(self, value, length):
        bits = Bitstream.from_random(value, length, rng=5).bits
        words = pack_bits(bits)
        assert np.array_equal(unpack_bits(words, length), bits)
        complement = packed_not(words, length)
        assert packed_popcount(complement) == length - int(bits.sum())
        assert tail_is_clear(complement, length)
        # Involution: double complement restores the original words exactly.
        assert np.array_equal(packed_not(complement, length), words)


class TestTailMasking:
    @given(lengths, st.integers(0, 2**32))
    @settings(max_examples=40, deadline=None)
    def test_logic_ops_never_leak_tail_bits(self, length, seed):
        rng = np.random.default_rng(seed)
        x, y = pack_bits(rng.integers(0, 2, (2, length), dtype=np.int64).astype(np.uint8))
        for result in (
            x & y,
            x | y,
            x ^ y,
            packed_not(x, length),
            packed_not(x ^ y, length),
            packed_tff_add(x, y, length, initial_state=1),
            packed_delay(x, length, fill=1),
            packed_toggle_states(x, length, initial_state=1),
            packed_alternating(length),
        ):
            assert tail_is_clear(result, length)
            # popcount over words must agree with the unpacked ones-count,
            # which is only true when no stray tail bits exist.
            assert packed_popcount(result) == unpack_bits(result, length).sum()

    def test_unpack_rejects_wrong_word_count(self):
        with pytest.raises(ValueError, match="words"):
            unpack_bits(np.zeros(2, dtype=np.uint64), 64)
        with pytest.raises(TypeError):
            unpack_bits(np.zeros(1, dtype=np.int64), 64)

    def test_all_ones_tail_masked(self):
        for length in (1, 63, 64, 65, 130):
            words = np.full(words_for(length), np.uint64(2**64 - 1), dtype=np.uint64)
            words = mask_tail(words, length)
            assert packed_popcount(words) == length
            assert tail_is_clear(words, length)


class TestEdgeCases:
    def test_empty_stream_behaves_like_unpacked(self):
        empty = Bitstream(np.zeros(0, dtype=np.uint8))
        words = pack_bits(empty.bits)
        assert len(empty) == 0 and empty.ones == 0
        with pytest.raises(ValueError):
            _ = empty.probability
        assert words_for(0) == 0 and words.shape == (0,)
        assert packed_popcount(words) == 0
        assert unpack_bits(words, 0).shape == (0,)

    def test_length_one_streams(self):
        for bit in ("0", "1"):
            stream = Bitstream(bit)
            words = pack_bits(stream.bits)
            assert packed_popcount(words) == stream.ones
            assert np.array_equal(unpack_bits(words, 1), stream.bits)
            assert words.shape == (1,)

    def test_invalid_encoding_raises(self):
        with pytest.raises(ValueError, match="unknown encoding"):
            Bitstream("01", encoding="ternary")


class TestFromExactRounding:
    def test_half_up_rounding_grid(self):
        # Regression for the banker's-rounding bias: round(p * length) with
        # round-half-to-even under-counted ones for e.g. 0.5 at odd lengths.
        for length in range(1, 34):
            for k in range(length + 1):
                value = k / length
                expected = min(int(np.floor(value * length + 0.5)), length)
                assert Bitstream.from_exact(value, length).ones == expected

    def test_midpoint_rounds_up(self):
        # 0.5 * 13 = 6.5: banker's rounding gave 6, half-up gives 7.
        assert Bitstream.from_exact(0.5, 13).ones == 7
        assert Bitstream.from_exact(0.5, 15).ones == 8

    def test_exact_counts_still_exact(self):
        assert Bitstream.from_exact(0.375, 16).ones == 6
        assert Bitstream.from_exact(0.0, 9).ones == 0
        assert Bitstream.from_exact(1.0, 9).ones == 9


class TestBitstreamMisc:
    def test_hash_and_eq(self):
        a = Bitstream("0110 1001")
        b = Bitstream([0, 1, 1, 0, 1, 0, 0, 1])
        assert a == b and hash(a) == hash(b)
        assert a != Bitstream("0110 1000")
        assert (a == "0110") is False

    def test_repr_and_to_string(self):
        stream = Bitstream("0110")
        assert "0110" in repr(stream)
        assert stream.to_string() == "0110"
        long = Bitstream(np.zeros(100, dtype=np.uint8))
        assert "..." in repr(long)

    def test_pack_bits_accepts_bool(self):
        bits = np.array([True, False, True])
        assert packed_popcount(pack_bits(bits)) == 2


class TestFaultKernelTail:
    """Tail-word hygiene of fault injection (:meth:`repro.faults.FaultSpec.apply`).

    A faulted word is ``w ^ flips``, so the flip masks must never carry a bit
    beyond ``n_bits`` in the tail word: every popcount in the engine trusts
    the tail invariant, so a single stray bit would silently corrupt counter
    values.
    """

    @given(lengths, st.sampled_from([1e-3, 0.3, 0.5, 1.0]), st.integers(0, 2**32))
    @settings(max_examples=40, deadline=None)
    def test_flip_masks_keep_the_tail_clear(self, length, rate, seed):
        rng = np.random.default_rng(seed)
        bits = rng.integers(0, 2, (2, 3, length), dtype=np.int64).astype(np.uint8)
        spec = FaultSpec(flip_rate=rate, seed=seed % 1000)
        flips = spec.masks(2, 3, length)
        assert tail_is_clear(flips, length)
        out = spec.apply(pack_bits(bits), length)
        assert tail_is_clear(out, length)
        # Popcount must agree with the bit-level reference computation.
        ref = bits ^ unpack_bits(flips, length)
        assert np.array_equal(packed_popcount(out), ref.sum(axis=-1))

    @given(lengths, st.integers(0, 2**32))
    @settings(max_examples=40, deadline=None)
    def test_faulted_streams_chained_with_kernels_stay_clean(self, length, seed):
        rng = np.random.default_rng(seed)
        bits = rng.integers(0, 2, (3, 2, length), dtype=np.int64).astype(np.uint8)
        faulted = FaultSpec(flip_rate=0.3, seed=seed % 1000).apply(pack_bits(bits), length)
        assert tail_is_clear(faulted, length)
        # Chain the usual packed kernels after injection: the tail must stay
        # spotless and popcounts must match the unpacked reference after
        # every step.
        inverted = packed_not(faulted, length)
        assert tail_is_clear(inverted, length)
        xnored = packed_not(faulted ^ inverted, length)
        assert tail_is_clear(xnored, length)
        # XNOR of a stream with its complement is all-zeros; with itself,
        # all-ones (and the tail masking keeps the count at ``length``, not
        # the word capacity).
        assert (packed_popcount(xnored) == 0).all()
        assert (packed_popcount(packed_not(faulted ^ faulted, length)) == length).all()
        assert np.array_equal(
            packed_popcount(faulted), unpack_bits(faulted, length).sum(axis=-1)
        )

    def test_tail_is_clear_detects_stray_bits(self):
        words = np.array([0xFF], dtype=np.uint64)
        assert tail_is_clear(words, 8)
        assert not tail_is_clear(words, 4)
        assert tail_is_clear(np.zeros(0, dtype=np.uint64), 0)
        assert tail_is_clear(np.array([2**63], dtype=np.uint64), 64)
