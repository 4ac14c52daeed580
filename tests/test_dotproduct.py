"""Tests for the stochastic dot-product engine."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.sc import (
    StochasticDotProductEngine,
    new_sc_engine,
    old_sc_engine,
    split_weights,
    stochastic_dot_product,
)
from repro.sc.elements.adders import TffAdder


class TestSplitWeights:
    def test_basic_split(self):
        w = np.array([0.5, -0.25, 0.0])
        pos, neg = split_weights(w)
        np.testing.assert_allclose(pos, [0.5, 0.0, 0.0])
        np.testing.assert_allclose(neg, [0.0, 0.25, 0.0])
        np.testing.assert_allclose(pos - neg, w)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            split_weights(np.array([1.5]))
        # NaN compares False against any bound: it must still fail the check.
        with pytest.raises(ValueError, match="finite"):
            split_weights(np.array([0.5, np.nan]))
        with pytest.raises(ValueError, match="finite"):
            new_sc_engine(6).dot(np.full(2, 0.5), np.array([np.nan, 0.5]))

    @given(
        st.lists(st.floats(min_value=-1.0, max_value=1.0), min_size=1, max_size=30)
    )
    def test_reconstruction_property(self, weights):
        w = np.array(weights)
        pos, neg = split_weights(w)
        assert np.all(pos >= 0) and np.all(neg >= 0)
        assert np.all(pos <= 1) and np.all(neg <= 1)
        np.testing.assert_allclose(pos - neg, w, atol=1e-12)


class TestStochasticDotProduct:
    def test_counts_exact_for_tff_tree(self):
        # 4 taps, all inputs 1.0 and all weights 1.0: every product stream is
        # all-ones, the tree output is all-ones, count = N.
        n = 32
        x_bits = np.ones((4, n), dtype=np.uint8)
        w_bits = np.ones((4, n), dtype=np.uint8)
        counts = stochastic_dot_product(x_bits, w_bits, TffAdder)
        assert counts == n

    def test_batched_shape(self):
        rng = np.random.default_rng(0)
        x_bits = rng.integers(0, 2, size=(3, 7, 9, 16)).astype(np.uint8)
        w_bits = rng.integers(0, 2, size=(9, 16)).astype(np.uint8)
        counts = stochastic_dot_product(x_bits, w_bits)
        assert counts.shape == (3, 7)


class TestEngineConfiguration:
    def test_invalid_configs_rejected(self):
        with pytest.raises(ValueError):
            StochasticDotProductEngine(precision=1)
        with pytest.raises(ValueError):
            StochasticDotProductEngine(adder="carry-save")
        with pytest.raises(ValueError):
            StochasticDotProductEngine(input_generator="laser")
        with pytest.raises(ValueError):
            StochasticDotProductEngine(weight_generator="dice")

    def test_length(self):
        assert StochasticDotProductEngine(precision=6).length == 64

    def test_factories(self):
        new = new_sc_engine(precision=5)
        assert (new.adder, new.input_generator, new.weight_generator) == (
            "tff",
            "ramp",
            "lowdisc",
        )
        old = old_sc_engine(precision=5)
        assert (old.adder, old.input_generator, old.weight_generator) == (
            "mux",
            "lfsr",
            "lfsr",
        )

    def test_tap_mismatch_rejected(self):
        engine = new_sc_engine(precision=4)
        with pytest.raises(ValueError):
            engine.dot(np.zeros(5), np.zeros(6))


class TestEngineAccuracy:
    def test_new_engine_accurate_dot_product(self):
        engine = new_sc_engine(precision=8)
        rng = np.random.default_rng(0)
        x = rng.random(25)
        w = rng.uniform(-1, 1, 25)
        result = engine.dot(x, w)
        exact = float(x @ w)
        # The proposed design should get within a few counter LSBs of the
        # exact dot product (scaled by the tree).
        assert abs(result.value[()] - exact) < 0.15 * 25 / 32 + 0.1

    def test_new_engine_much_more_accurate_than_old(self):
        rng = np.random.default_rng(1)
        errors = {"new": [], "old": []}
        for trial in range(10):
            x = rng.random(25)
            w = rng.uniform(-1, 1, 25)
            exact = float(x @ w)
            for name, factory in (("new", new_sc_engine), ("old", old_sc_engine)):
                engine = factory(precision=6, seed=trial + 1)
                result = engine.dot(x, w)
                errors[name].append((float(result.value[()]) - exact) ** 2)
        assert np.mean(errors["new"]) < np.mean(errors["old"])

    def test_sign_activation_correctness(self):
        engine = new_sc_engine(precision=8)
        x = np.full(25, 0.8)
        w_positive = np.full(25, 0.5)
        w_negative = np.full(25, -0.5)
        assert engine.dot(x, w_positive).sign[()] == 1
        assert engine.dot(x, w_negative).sign[()] == -1

    def test_batched_dot(self):
        engine = new_sc_engine(precision=6)
        rng = np.random.default_rng(2)
        x = rng.random((4, 9))
        w = rng.uniform(-1, 1, 9)
        result = engine.dot(x, w)
        assert result.positive_count.shape == (4,)
        assert result.sign.shape == (4,)
        exact = x @ w
        np.testing.assert_allclose(result.value, exact, atol=0.3)

    def test_value_reconstruction_scale(self):
        # value = (pos - neg) / N * 2**depth
        engine = new_sc_engine(precision=4)
        result = engine.dot(np.ones(2), np.array([1.0, 1.0]))
        assert result.tree_scale == 2
        assert result.value[()] == pytest.approx(2.0)

    @given(st.integers(min_value=3, max_value=7))
    @settings(max_examples=5, deadline=None)
    def test_error_decreases_with_precision(self, precision):
        rng = np.random.default_rng(42)
        x = rng.random(16)
        w = rng.uniform(-1, 1, 16)
        exact = float(x @ w)
        low = new_sc_engine(precision=2).dot(x, w)
        high = new_sc_engine(precision=8).dot(x, w)
        assert abs(float(high.value[()]) - exact) <= abs(float(low.value[()]) - exact) + 1e-9
