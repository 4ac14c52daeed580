"""Tests for the deterministic fault-injection subsystem (:mod:`repro.faults`).

Covers the mask generator's statistics and coordinate determinism, the
``w ^ flips`` injection of :class:`FaultSpec` and its boundary checks,
bit-identity of faulted engines and convolutions with the byte-per-bit
reference and across tilings, the mode interaction (stream faults rule out
the leaf tables), the matched binary-word flip baseline, and the
degradation sweep.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.bitstream.packed import pack_bits, unpack_bits
from repro.faults import FaultSpec, bernoulli_words, coordinate_words, flip_binary_words
from repro.faults.sweep import (
    FaultSweepConfig,
    parse_rates,
    run_fault_sweep,
    write_artifact,
)
from repro.sc.bipolar import BipolarDotProductEngine
from repro.sc.convolution import StochasticConv2D
from repro.sc.dotproduct import new_sc_engine
from repro.utils.windows import extract_patches, patches_to_map

import fault_oracle
import sc_oracle
from tiles import SINGLE_TILE, forced_tile


def _unpack(words, n_bits):
    return unpack_bits(np.asarray(words, dtype=np.uint64), n_bits)


# --------------------------------------------------------------------------- #
# mask generator
# --------------------------------------------------------------------------- #
class TestMasks:
    def test_bernoulli_rate_statistics(self):
        for rate in (0.03, 0.125, 0.5, 0.9):
            words = bernoulli_words(rate, seed=1, salt=7, n_streams=40,
                                    taps=5, n_bits=512)
            bits = _unpack(words, 512)
            assert bits.mean() == pytest.approx(rate, abs=0.01)

    def test_bernoulli_extremes(self):
        zeros = bernoulli_words(0.0, 0, 1, 3, 2, 100)
        ones = bernoulli_words(1.0, 0, 1, 3, 2, 100)
        assert not _unpack(zeros, 100).any()
        assert _unpack(ones, 100).all()

    def test_coordinate_determinism_and_offset(self):
        # Generating streams [0, 8) in one call must equal two offset calls.
        whole = bernoulli_words(0.2, seed=3, salt=1, n_streams=8, taps=3,
                                n_bits=192)
        head = bernoulli_words(0.2, seed=3, salt=1, n_streams=5, taps=3,
                               n_bits=192)
        tail = bernoulli_words(0.2, seed=3, salt=1, n_streams=3, taps=3,
                               n_bits=192, offset=5)
        assert np.array_equal(whole, np.concatenate([head, tail], axis=0))

    def test_distinct_channels_decorrelated(self):
        a = bernoulli_words(0.5, seed=9, salt=1, n_streams=4, taps=2, n_bits=256)
        b = bernoulli_words(0.5, seed=9, salt=2, n_streams=4, taps=2, n_bits=256)
        assert not np.array_equal(a, b)
        assert np.array_equal(a, bernoulli_words(0.5, 9, 1, 4, 2, 256))

    def test_coordinate_words_shape(self):
        grid = coordinate_words(seed=0, salt=5, n_streams=3, taps=4, n_bits=130)
        assert grid.shape == (3, 4, 3)  # ceil(130 / 64) == 3 words

    def test_tail_bits_always_clear(self):
        for n_bits in (1, 63, 64, 65, 127, 200):
            words = bernoulli_words(1.0, 0, 1, 2, 2, n_bits)
            rem = n_bits % 64
            if rem:
                assert int(words[..., -1].max()) < (1 << rem)


#: Rates at the edges of the 31-digit bit slicing and at the sweep's decades.
EDGE_RATES = [0.0, 2**-31, 1e-4, 1e-3, 1e-2, 0.1, 0.5, 0.75, 1 - 2**-31, 1.0]


@settings(max_examples=150, deadline=None)
@given(
    rate=st.one_of(st.sampled_from(EDGE_RATES), st.floats(0.0, 1.0)),
    seed=st.integers(0, 2**63),
    salt=st.integers(0, 7),
    n_streams=st.integers(0, 5),
    taps=st.integers(0, 4),
    n_bits=st.integers(0, 300),
    offset=st.integers(0, 2**40),
)
def test_masks_match_the_plain_horner_oracle(rate, seed, salt, n_streams, taps, n_bits, offset):
    """The gated, in-place generator gives the oracle's bits for every argument."""
    args = (seed, salt, n_streams, taps, n_bits, offset)
    got = bernoulli_words(rate, *args)
    expected = fault_oracle.bernoulli_words(rate, *args)
    assert got.dtype == expected.dtype and got.shape == expected.shape
    np.testing.assert_array_equal(got, expected)


# --------------------------------------------------------------------------- #
# FaultSpec
# --------------------------------------------------------------------------- #
class TestFaultSpec:
    def test_two_fields(self):
        assert [f.name for f in dataclasses.fields(FaultSpec)] == ["flip_rate", "seed"]
        spec = FaultSpec(flip_rate=0.5)
        with pytest.raises(dataclasses.FrozenInstanceError):
            spec.flip_rate = 0.1

    def test_rate_validation(self):
        # Only real, non-bool numbers in [0, 1]; anything else fails at the
        # boundary with an error naming the field.
        for rate in (-0.1, 1.5, float("nan"), float("inf"), "0.1", None,
                     np.array([0.1, 0.2]), np.array(0.1), True, False, np.True_, 1j):
            with pytest.raises(ValueError, match="flip_rate must be a real number in"):
                FaultSpec(flip_rate=rate)
        for rate in (0, 1, 0.0, 1.0, 1e-3, np.float64(0.25), np.float32(0.5), np.int64(0)):
            assert FaultSpec(flip_rate=rate).flip_rate == rate

    def test_full_rate_inverts_every_bit(self):
        # w ^ flips with every mask bit set: each stream bit inverts, and the
        # tail word past the stream length stays clear.
        bits = np.random.default_rng(0).integers(0, 2, (2, 3, 100), dtype=np.int64).astype(np.uint8)
        inverted = FaultSpec(flip_rate=1.0).apply(pack_bits(bits), 100)
        np.testing.assert_array_equal(_unpack(inverted, 100), 1 - bits)
        assert int(inverted[..., -1].max()) < (1 << 36)
        with pytest.raises(TypeError, match="uint64"):
            FaultSpec(flip_rate=1.0).apply(bits, 100)

    def test_packed_and_unpacked_apply_identical(self):
        # Packed injection against the byte-level XOR of the same (unpacked)
        # mask.
        spec = FaultSpec(flip_rate=0.05, seed=11)
        bits = np.random.default_rng(1).integers(0, 2, (4, 5, 200),
                                                 dtype=np.int64).astype(np.uint8)
        packed = spec.apply(pack_bits(bits), 200)
        flips = unpack_bits(spec.masks(4, 5, 200, 0), 200)
        assert np.array_equal(unpack_bits(packed, 200), bits ^ flips)

    def test_nonzero_masks_are_the_nonzero_mask_words(self):
        spec = FaultSpec(flip_rate=2e-3, seed=6)
        masks = spec.masks(9, 25, 256, offset=40)
        index, flips = spec.nonzero_masks(9, 25, 256, offset=40)
        np.testing.assert_array_equal(index, np.flatnonzero(masks))
        np.testing.assert_array_equal(flips, masks.reshape(-1)[index])
        assert 0 < index.size < masks.size

    def test_apply_is_offset_composable(self):
        spec = FaultSpec(flip_rate=0.1, seed=3)
        words = pack_bits(np.random.default_rng(2).integers(0, 2, (6, 2, 100),
                                                            dtype=np.int64).astype(np.uint8))
        whole = spec.apply(words, 100)
        head = spec.apply(words[:4], 100)
        tail = spec.apply(words[4:], 100, offset=4)
        assert np.array_equal(whole, np.concatenate([head, tail], axis=0))

    def test_offset_selects_the_stream_coordinate(self):
        # The same words at another stream offset take another mask.
        spec = FaultSpec(flip_rate=0.3, seed=1)
        words = pack_bits(np.random.default_rng(3).integers(0, 2, (1, 2, 256),
                                                            dtype=np.int64).astype(np.uint8))
        at_zero = spec.apply(words, 256)
        at_one = spec.apply(words, 256, offset=1)
        assert not np.array_equal(at_zero, at_one)
        np.testing.assert_array_equal(at_one ^ words, spec.masks(1, 2, 256, 1))

    def test_empty_apply_is_noop(self):
        spec = FaultSpec(flip_rate=0.5)
        empty = np.zeros((0, 3, 2), dtype=np.uint64)
        assert spec.apply(empty, 100).shape == empty.shape
        zero_taps = np.zeros((2, 0, 2), dtype=np.uint64)
        assert spec.apply(zero_taps, 100).shape == zero_taps.shape
        zero_length = np.zeros((2, 3, 0), dtype=np.uint64)
        assert spec.apply(zero_length, 0).shape == zero_length.shape
        words = np.ones((2, 3, 2), dtype=np.uint64)
        assert FaultSpec().apply(words, 100) is words


# --------------------------------------------------------------------------- #
# engines and convolution
# --------------------------------------------------------------------------- #
class TestEngineFaults:
    def setup_method(self):
        self.rng = np.random.default_rng(42)
        self.x = self.rng.random((12, 9))
        self.w = self.rng.uniform(-1, 1, 9)

    def test_backends_bit_identical_under_faults(self):
        # The packed engine against the byte-per-bit reference fed the same
        # (unpacked) fault masks.
        spec = FaultSpec(flip_rate=0.02, seed=9)
        result = new_sc_engine(precision=6, faults=spec).dot(self.x, self.w)
        pos, neg = sc_oracle.dot(new_sc_engine(precision=6, faults=spec), self.x, self.w)
        assert np.array_equal(result.positive_count, pos)
        assert np.array_equal(result.negative_count, neg)

    def test_repeated_dot_is_deterministic(self):
        engine = new_sc_engine(precision=6, faults=FaultSpec(flip_rate=0.05, seed=2))
        a = engine.dot(self.x, self.w)
        b = engine.dot(self.x, self.w)
        assert np.array_equal(a.positive_count, b.positive_count)
        assert np.array_equal(a.negative_count, b.negative_count)

    def test_faults_actually_perturb(self):
        clean = new_sc_engine(precision=6).dot(self.x, self.w)
        faulted = new_sc_engine(
            precision=6, faults=FaultSpec(flip_rate=0.3, seed=1)
        ).dot(self.x, self.w)
        assert not (
            np.array_equal(clean.positive_count, faulted.positive_count)
            and np.array_equal(clean.negative_count, faulted.negative_count)
        )

    def test_auto_mode_resolves_to_streams(self):
        engine = new_sc_engine(precision=6, faults=FaultSpec(flip_rate=0.01))
        assert engine._stream_faults_active
        assert not engine._use_count_mode
        assert new_sc_engine(precision=6)._use_count_mode
        # A zero flip rate faults nothing and keeps the leaf tables.
        zero = new_sc_engine(precision=6, faults=FaultSpec(seed=4))
        assert not zero._stream_faults_active
        assert zero._use_count_mode

    def test_faults_type_checked(self):
        with pytest.raises(TypeError):
            new_sc_engine(precision=6, faults={"flip_rate": 0.1})

    def test_bipolar_engine_faults(self):
        values = self.rng.uniform(-1, 1, (8, 5))
        weights = self.rng.uniform(-1, 1, 5)
        spec = FaultSpec(flip_rate=0.05, seed=4)
        engine = BipolarDotProductEngine(precision=6, faults=spec)
        faulted = engine.dot(values, weights).count
        assert np.array_equal(faulted, sc_oracle.bipolar_dot(engine, values, weights))
        clean = BipolarDotProductEngine(precision=6).dot(values, weights)
        assert not np.array_equal(clean.count, faulted)

class TestConvolutionFaults:
    def test_tiling_and_backend_invariance(self):
        # Every tiling equals the byte-per-bit reference over all patches.
        rng = np.random.default_rng(7)
        images = rng.random((2, 10, 10))
        kernels = rng.uniform(-1, 1, (3, 3, 3))
        spec = FaultSpec(flip_rate=0.02, seed=13)
        pos, neg = (
            patches_to_map(c, (10, 10))
            for c in sc_oracle.dot_filters(
                new_sc_engine(precision=6, faults=spec),
                extract_patches(images, (3, 3), 1, 1),
                kernels.reshape(3, 9),
            )
        )
        for tile in (None, 7, 13, SINGLE_TILE):
            engine = new_sc_engine(precision=6, faults=spec)
            layer = StochasticConv2D(kernels, engine=engine, padding=1)
            with forced_tile(tile):
                result = layer.forward(images)
            assert np.array_equal(result.positive_count, pos)
            assert np.array_equal(result.negative_count, neg)


# --------------------------------------------------------------------------- #
# binary baseline
# --------------------------------------------------------------------------- #
class TestBinaryFlips:
    def test_rate_zero_identity_and_determinism(self):
        values = np.array([[-100, 0, 77], [5, -1, 1023]], dtype=np.int64)
        assert np.array_equal(flip_binary_words(values, 12, 0.0, 0), values)
        a = flip_binary_words(values, 12, 0.3, seed=6)
        b = flip_binary_words(values, 12, 0.3, seed=6)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, flip_binary_words(values, 12, 0.3, seed=7))

    def test_round_trip_via_double_flip(self):
        # XOR-ing the same mask twice restores the original words.
        values = np.arange(-32, 32, dtype=np.int64)
        once = flip_binary_words(values, 8, 0.5, seed=3)
        masks = (values.view(np.uint64) ^ once.view(np.uint64))
        twice = once.view(np.uint64) ^ masks
        assert np.array_equal(twice.view(np.int64), values)

    def test_results_stay_in_range(self):
        values = np.array([-64, 63], dtype=np.int64)
        flipped = flip_binary_words(values, 7, 1.0, seed=0)
        assert flipped.min() >= -64 and flipped.max() <= 63

    def test_validation(self):
        with pytest.raises(ValueError):
            flip_binary_words(np.array([1000], dtype=np.int64), 8, 0.1, 0)
        with pytest.raises(ValueError):
            flip_binary_words(np.array([0]), 64, 0.1, 0)
        with pytest.raises(TypeError):
            flip_binary_words(np.array([0.5]), 8, 0.1, 0)


# --------------------------------------------------------------------------- #
# degradation sweep
# --------------------------------------------------------------------------- #
class TestSweep:
    def test_quick_sweep_structure(self, tmp_path):
        config = FaultSweepConfig(
            rates=(0.0, 1e-2), precision=5, images=1, filters=2, kernel=3,
            trials=1,
        )
        result = run_fault_sweep(config)
        assert len(result.rows) == 2
        clean_row = result.rows[0]
        assert clean_row["sc_sign_agreement"] == 1.0
        assert clean_row["binary_sign_agreement"] == 1.0
        assert clean_row["sc_value_rmse"] == 0.0
        for row in result.rows:
            assert set(row) == {
                "rate", "binary_word_rate", "sc_sign_agreement",
                "binary_sign_agreement", "sc_value_rmse", "binary_value_rmse",
            }
        artifact = tmp_path / "BENCH_faults.json"
        write_artifact(result, artifact)
        import json

        data = json.loads(artifact.read_text())
        assert data["fault_sweep"]["rows"] == result.rows
        assert data["fault_sweep"]["accumulator_bits"] == 2 * 5 + 5
        assert "backend" not in data["fault_sweep"]

    def test_parse_rates(self):
        assert parse_rates("0,1e-3, 0.5") == (0.0, 1e-3, 0.5)
        with pytest.raises(ValueError):
            parse_rates("abc")
        with pytest.raises(ValueError):
            parse_rates("")

    def test_config_validation(self):
        with pytest.raises(ValueError):
            FaultSweepConfig(rates=())
        with pytest.raises(ValueError):
            FaultSweepConfig(rates=(2.0,))
        with pytest.raises(ValueError):
            FaultSweepConfig(images=0)
        with pytest.raises(ValueError):
            FaultSweepConfig(trials=0)
