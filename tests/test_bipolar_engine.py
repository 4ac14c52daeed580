"""Tests for the bipolar stochastic dot-product engine (the rejected alternative)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.bitstream import unpack_bits
from repro.sc import BipolarDotProductEngine, new_sc_engine
from repro.sc.bipolar import BipolarDotProductResult

import sc_oracle


class TestConstruction:
    def test_validation(self):
        with pytest.raises(ValueError):
            BipolarDotProductEngine(precision=1)
        with pytest.raises(ValueError):
            BipolarDotProductEngine(adder="or")

    def test_length(self):
        assert BipolarDotProductEngine(precision=6).length == 64

    def test_tap_mismatch(self):
        engine = BipolarDotProductEngine(precision=4)
        with pytest.raises(ValueError):
            engine.dot(np.zeros(5), np.zeros(6))

    def test_weight_range_check(self):
        engine = BipolarDotProductEngine(precision=4)
        with pytest.raises(ValueError):
            engine.prepare_weights(np.array([[1.5]]))
        with pytest.raises(ValueError, match="finite"):
            engine.prepare_weights(np.array([[np.nan, 0.5]]))
        with pytest.raises(ValueError, match="finite"):
            engine.dot(np.full(2, 0.5), np.array([np.nan, 0.5]))


class TestAccuracy:
    def test_simple_dot_product(self):
        engine = BipolarDotProductEngine(precision=8)
        x = np.full(4, 0.5)
        w = np.array([1.0, 1.0, 1.0, 1.0])
        result = engine.dot(x, w)
        assert result.value[()] == pytest.approx(2.0, abs=0.3)
        assert result.sign[()] == 1

    def test_negative_weights_flip_sign(self):
        engine = BipolarDotProductEngine(precision=8)
        x = np.full(9, 0.8)
        result = engine.dot(x, np.full(9, -0.8))
        assert result.sign[()] == -1
        assert result.value[()] < 0

    def test_padding_does_not_bias_result(self):
        # 25 taps get padded to 32 leaves; the pad streams encode bipolar zero
        # so an all-zero dot product must stay near zero.
        engine = BipolarDotProductEngine(precision=8)
        x = np.zeros(25)
        w = np.zeros(25)
        result = engine.dot(x, w)
        assert abs(result.value[()]) < 2.0

    def test_batched_shape(self):
        engine = BipolarDotProductEngine(precision=6)
        rng = np.random.default_rng(0)
        x = rng.random((5, 9))
        w = rng.uniform(-1, 1, 9)
        result = engine.dot(x, w)
        assert result.count.shape == (5,)
        assert result.sign.shape == (5,)

    @given(st.integers(min_value=0, max_value=1000))
    @settings(max_examples=10, deadline=None)
    def test_value_reconstruction_bounds(self, seed):
        rng = np.random.default_rng(seed)
        engine = BipolarDotProductEngine(precision=6, seed=seed + 1)
        x = rng.random(9)
        w = rng.uniform(-1, 1, 9)
        result = engine.dot(x, w)
        # The reconstructed value must stay within the representable range.
        assert abs(result.value[()]) <= result.tree_scale


class TestSignActivation:
    def test_sign_tie_resolves_to_plus_one(self):
        # A hardware sign activation emits +-1 only: the exact mid-scale tie
        # 2 * count == length is defined as +1, never 0.
        result = BipolarDotProductResult(
            count=np.array([8, 0, 16, 9, 7]), length=16, tree_scale=4
        )
        np.testing.assert_array_equal(result.sign, [1, -1, 1, 1, -1])
        assert result.sign.dtype == np.int8

    def test_sign_never_zero(self):
        rng = np.random.default_rng(2)
        engine = BipolarDotProductEngine(precision=4)
        for trial in range(20):
            x = rng.random(9)
            w = rng.uniform(-1, 1, 9)
            assert np.all(np.isin(engine.dot(x, w).sign, (-1, 1))), trial


class TestDeterminism:
    @pytest.mark.parametrize("adder", ["tff", "mux"])
    def test_repeated_dot_calls_are_identical(self, adder):
        # The MUX select seed counter must reset per dot() call: one engine
        # evaluating the same inputs twice returns the same counts.
        rng = np.random.default_rng(5)
        x = rng.random((3, 9))
        w = rng.uniform(-1, 1, 9)
        engine = BipolarDotProductEngine(precision=6, adder=adder, seed=2)
        first = engine.dot(x, w)
        second = engine.dot(x, w)
        np.testing.assert_array_equal(first.count, second.count)

    def test_repeated_calls_match_fresh_engine(self):
        rng = np.random.default_rng(6)
        x = rng.random(25)
        w = rng.uniform(-1, 1, 25)
        engine = BipolarDotProductEngine(precision=5, adder="mux", seed=3)
        engine.dot(x, rng.uniform(-1, 1, 25))  # unrelated earlier call
        reused = engine.dot(x, w)
        fresh = BipolarDotProductEngine(precision=5, adder="mux", seed=3).dot(x, w)
        np.testing.assert_array_equal(reused.count, fresh.count)


class TestBackendEquivalence:
    """The packed engine against the byte-per-bit bipolar reference."""

    @pytest.mark.parametrize("adder", ["tff", "mux"])
    # Odd/prime tap counts exercise the bipolar-zero padding; precisions 3
    # and 5 give stream lengths (8, 32) that are not multiples of 64, where
    # tail-word masking matters, 7 gives two full words per stream.
    @pytest.mark.parametrize("taps", [2, 3, 5, 9, 25])
    @pytest.mark.parametrize("precision", [3, 5, 7])
    def test_backends_bit_identical(self, adder, taps, precision):
        rng = np.random.default_rng(precision * 100 + taps)
        x = rng.random((4, taps))
        w = rng.uniform(-1, 1, taps)
        engine = BipolarDotProductEngine(precision=precision, adder=adder, seed=7)
        packed = engine.dot(x, w)
        expected = sc_oracle.bipolar_dot(engine, x, w)
        np.testing.assert_array_equal(packed.count, expected)
        np.testing.assert_array_equal(packed.sign, np.where(2 * expected >= packed.length, 1, -1))
        assert packed.tree_scale == 1 << int(np.ceil(np.log2(taps)))
        assert packed.length == 1 << precision

    def test_stream_generation_round_trips(self):
        engine = BipolarDotProductEngine(precision=5)
        values = np.linspace(-1.0, 1.0, 7)
        np.testing.assert_array_equal(
            unpack_bits(engine.input_words(engine.prepare_inputs(values)), engine.length),
            engine._input_sng().generate_bits((values + 1) / 2, engine.length),
        )
        np.testing.assert_array_equal(
            unpack_bits(engine.weight_words(values), engine.length),
            engine._weight_sng().generate_bits((values + 1) / 2, engine.length),
        )

    def test_prepared_inputs_reusable_across_kernels(self):
        rng = np.random.default_rng(9)
        x = rng.random((3, 9))
        kernels = rng.uniform(-1, 1, (4, 9))
        for adder in ("tff", "mux"):
            engine = BipolarDotProductEngine(precision=5, adder=adder)
            prepared = engine.prepare_inputs(x)
            for kernel in kernels:
                direct = engine.dot(x, kernel).count
                bank = engine.prepare_weights(kernel[np.newaxis])
                np.testing.assert_array_equal(bank.counts(prepared)[..., 0], direct)


class TestWeightBank:
    @pytest.mark.parametrize("adder", ["tff", "mux"])
    @pytest.mark.parametrize("taps", [1, 2, 5, 9, 25])
    @pytest.mark.parametrize("mode", ["auto", "streams"])
    @pytest.mark.parametrize("precision", [3, 5, 8])
    def test_bank_equals_per_kernel_evaluation_with_reset_seeds(
        self, adder, taps, mode, precision
    ):
        # The bipolar engine restarts its MUX select seeds for every
        # evaluation, so a bank over all kernels must equal evaluating each
        # kernel on its own -- with the engine and with the byte reference.
        rng = np.random.default_rng(taps * 10 + precision)
        x = rng.uniform(-1, 1, (3, taps))
        kernels = rng.uniform(-1, 1, (4, taps))
        engine = BipolarDotProductEngine(precision=precision, adder=adder, seed=5, mode=mode)
        bank = engine.prepare_weights(kernels)
        counts = bank.counts(engine.prepare_inputs(x))
        assert counts.shape == (3, 4)
        per_kernel = np.stack([engine.dot(x, k).count for k in kernels], axis=-1)
        np.testing.assert_array_equal(counts, per_kernel)
        np.testing.assert_array_equal(
            counts, sc_oracle.bipolar_dot_filters(engine, x, kernels)
        )
        # Reusing the bank (cached select streams) gives the same counts.
        np.testing.assert_array_equal(bank.counts(engine.prepare_inputs(x)), counts)

    @pytest.mark.parametrize("adder", ["tff", "mux"])
    @pytest.mark.parametrize("precision, level_dtype", [(14, np.int16), (15, np.int32)])
    def test_wide_precisions_match_streams(self, adder, precision, level_dtype):
        # Precision 14: full-scale inputs and weights drive 2 * C_{w&m} to
        # 2N = 32768, past int16, while the levels stay int16.  Precision 15:
        # int32 levels and tables.
        x = np.array([[1.0, 1.0, 1.0], [-1.0, -1.0, -1.0], [1.0, -1.0, 0.3]])
        kernels = np.array([[1.0, 1.0, 1.0], [-1.0, -1.0, -1.0], [0.5, -0.25, 1.0]])
        engines = {
            mode: BipolarDotProductEngine(precision=precision, adder=adder, seed=2, mode=mode)
            for mode in ("auto", "streams")
        }
        assert engines["auto"].prepare_inputs(x).dtype == level_dtype
        bank = engines["auto"].prepare_weights(kernels)
        counts = bank.evaluate(x)
        assert bank.leaf_tables().dtype == level_dtype
        np.testing.assert_array_equal(counts, engines["streams"].prepare_weights(kernels).evaluate(x))
        # x = w = +-1: every XNOR product is all ones.
        assert counts[0, 0] == counts[1, 1] > (1 << precision) * 3 // 4

    def test_bank_validation(self):
        engine = BipolarDotProductEngine(precision=4)
        with pytest.raises(ValueError):
            engine.prepare_weights(np.zeros(5))  # not 2-D
        with pytest.raises(ValueError):
            engine.prepare_weights(np.zeros((0, 5)))  # zero filters
        bank = engine.prepare_weights(np.zeros((2, 5)))
        with pytest.raises(ValueError):
            bank.counts(engine.prepare_inputs(np.zeros((3, 4))))  # tap mismatch
        assert "BipolarWeightBank" in repr(bank)


class TestPaperClaim:
    def test_split_unipolar_design_more_accurate_near_zero(self):
        """Section IV-B: near the decision point the bipolar design is noisier.

        Compare the paper's positive/negative-split unipolar engine against
        the bipolar engine on dot products whose true value is near zero,
        which is exactly where the sign activation decides.
        """
        rng = np.random.default_rng(0)
        taps = 25
        split_errors, bipolar_errors = [], []
        for trial in range(12):
            x = rng.random(taps)
            w = rng.uniform(-1, 1, taps)
            w = w - (x @ w) / x.sum()  # force the true dot product to ~0
            w = np.clip(w, -1, 1)
            exact = float(x @ w)
            split = new_sc_engine(precision=6, seed=trial + 1).dot(x, w)
            bipolar = BipolarDotProductEngine(precision=6, seed=trial + 1).dot(x, w)
            split_errors.append((float(split.value[()]) - exact) ** 2)
            bipolar_errors.append((float(bipolar.value[()]) - exact) ** 2)
        assert np.mean(split_errors) < np.mean(bipolar_errors)
