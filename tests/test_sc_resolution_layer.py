"""Tests for StochasticResolutionConv2D and SC-resolution-aware retraining."""

import numpy as np
import pytest

from repro.nn import (
    Adam,
    Conv2D,
    Dense,
    Flatten,
    MaxPool2D,
    Sequential,
    StochasticResolutionConv2D,
    quantize_and_freeze,
    retrain,
)
from repro.sc import StochasticConv2D, new_sc_engine


class TestConstruction:
    def test_validation(self):
        with pytest.raises(ValueError):
            StochasticResolutionConv2D(1, 4, 3, precision=1)
        with pytest.raises(ValueError):
            StochasticResolutionConv2D(1, 4, 3, precision=4, soft_threshold=-1)

    def test_tree_scale(self):
        layer = StochasticResolutionConv2D(1, 4, 5, precision=4)
        assert layer.tree_scale == 32  # 25 taps -> depth 5
        layer3 = StochasticResolutionConv2D(1, 4, 3, precision=4)
        assert layer3.tree_scale == 16  # 9 taps -> depth 4

    def test_from_conv(self):
        base = Conv2D(1, 4, 3, padding=1)
        weights = np.clip(base.weights, -1, 1) * 0.5
        layer = StochasticResolutionConv2D.from_conv(base, weights, precision=6)
        assert layer.padding == 1
        assert layer.trainable is False
        np.testing.assert_allclose(layer.bias, 0.0)
        with pytest.raises(ValueError):
            StochasticResolutionConv2D.from_conv(base, np.zeros((4, 1, 5, 5)), precision=6)
        with pytest.raises(ValueError):
            StochasticResolutionConv2D.from_conv(base, weights * 10, precision=6)
        with pytest.raises(ValueError, match="finite"):
            StochasticResolutionConv2D.from_conv(base, weights * np.nan, precision=6)

    def test_repr(self):
        layer = StochasticResolutionConv2D(1, 2, 3, precision=5)
        assert "precision=5" in repr(layer)


class TestForward:
    def test_outputs_are_ternary(self):
        rng = np.random.default_rng(0)
        layer = StochasticResolutionConv2D(1, 4, 3, precision=4, padding=1)
        layer.weights[...] = rng.uniform(-1, 1, layer.weights.shape)
        out = layer.forward(rng.random((2, 1, 8, 8)))
        assert out.shape == (2, 4, 8, 8)
        assert set(np.unique(out)).issubset({-1.0, 0.0, 1.0})

    def test_input_shape_validation(self):
        layer = StochasticResolutionConv2D(1, 2, 3, precision=4)
        with pytest.raises(ValueError):
            layer.forward(np.zeros((2, 3, 8, 8)))

    def test_high_precision_matches_ideal_sign(self):
        # At very high precision the layer degenerates to sign(x . w).
        rng = np.random.default_rng(1)
        layer = StochasticResolutionConv2D(1, 3, 3, precision=12, padding=1)
        layer.weights[...] = rng.uniform(-1, 1, layer.weights.shape)
        x = rng.random((1, 1, 6, 6))
        out = layer.forward(x)
        reference = Conv2D(1, 3, 3, padding=1, activation="sign")
        reference.weights[...] = layer.weights
        reference.bias[...] = 0.0
        expected = reference.forward(x)
        assert np.mean(out == expected) > 0.95

    def test_low_precision_zeroes_small_outputs(self):
        # At 2-bit precision the counter LSB is large, so small dot products
        # collapse to zero far more often than at 8-bit precision.
        rng = np.random.default_rng(2)
        weights = rng.uniform(-0.3, 0.3, (4, 1, 5, 5))
        x = rng.random((2, 1, 12, 12)) * 0.3
        zeros = {}
        for precision in (2, 8):
            layer = StochasticResolutionConv2D(1, 4, 5, precision=precision, padding=2)
            layer.weights[...] = weights
            zeros[precision] = int(np.sum(layer.forward(x) == 0))
        assert zeros[2] > zeros[8]

    def test_matches_bitexact_engine_closely(self):
        # The layer is the noise-free limit of the TFF-adder engine: its sign
        # decisions agree with bit-exact simulation except within a few LSBs
        # of the decision boundary.
        rng = np.random.default_rng(3)
        kernels = rng.uniform(-1, 1, (3, 5, 5))
        images = rng.random((1, 10, 10))
        precision = 6
        layer = StochasticResolutionConv2D(1, 3, 5, precision=precision, padding=2)
        layer.weights[...] = kernels[:, np.newaxis]
        ideal = layer.forward(images[:, np.newaxis])
        engine_layer = StochasticConv2D(
            kernels, engine=new_sc_engine(precision), padding=2
        )
        exact = engine_layer.forward(images)
        agreement = np.mean(ideal == exact.sign)
        assert agreement > 0.7
        confident = np.abs(exact.value) > 0.5
        assert np.mean(ideal[confident] == exact.sign[confident]) > 0.9

    def test_soft_threshold_increases_zeros(self):
        rng = np.random.default_rng(4)
        weights = rng.uniform(-1, 1, (4, 1, 3, 3))
        x = rng.random((1, 1, 8, 8))
        plain = StochasticResolutionConv2D(1, 4, 3, precision=6, padding=1)
        plain.weights[...] = weights
        soft = StochasticResolutionConv2D(
            1, 4, 3, precision=6, padding=1, soft_threshold=0.05
        )
        soft.weights[...] = weights
        assert np.sum(soft.forward(x) == 0) >= np.sum(plain.forward(x) == 0)


class TestRetrainingIntegration:
    def test_quantize_and_freeze_sc_resolution(self):
        rng = np.random.default_rng(0)
        model = Sequential(
            [
                Conv2D(1, 4, 3, padding=1, activation="relu", rng=rng),
                MaxPool2D(2),
                Flatten(),
                Dense(4 * 7 * 7, 10, rng=rng),
            ]
        )
        frozen = quantize_and_freeze(
            model, precision=4, sc_resolution=True, soft_threshold=0.02
        )
        first = frozen.layers[0]
        assert isinstance(first, StochasticResolutionConv2D)
        assert first.precision == 4
        assert first.soft_threshold == 0.02
        assert np.abs(first.weights).max() <= 1.0

    def test_retraining_with_sc_resolution_layer_learns(self):
        rng = np.random.default_rng(5)
        x = rng.random((120, 1, 12, 12))
        y = (x.mean(axis=(1, 2, 3)) > 0.5).astype(np.int64)
        model = Sequential(
            [
                Conv2D(1, 4, 3, padding=1, activation="relu", rng=rng),
                MaxPool2D(2),
                Flatten(),
                Dense(4 * 6 * 6, 2, rng=rng),
            ]
        )
        model.fit(x, y, epochs=4, optimizer=Adam(0.01))
        frozen = quantize_and_freeze(model, precision=4, sc_resolution=True)
        weights_before = frozen.layers[0].weights.copy()
        before = frozen.misclassification_rate(x, y)
        retrain(frozen, x, y, epochs=5, optimizer=Adam(0.01))
        after = frozen.misclassification_rate(x, y)
        assert after <= before + 1e-9
        # The frozen SC-resolution layer itself must not move.
        np.testing.assert_allclose(frozen.layers[0].weights, weights_before)
