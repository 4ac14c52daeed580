"""Tests for optimizers, the Sequential container, training, and retraining."""

import numpy as np
import pytest

from repro.nn import (
    Adam,
    Conv2D,
    Dense,
    Dropout,
    Flatten,
    FrozenConv2D,
    MaxPool2D,
    Sequential,
    Sign,
    build_lenet5_small,
    freeze_first_layer,
    prepare_first_layer_weights,
    quantize_and_freeze,
    quantize_weights,
    retrain,
    scale_kernels,
    soft_threshold,
)


def make_blobs(n_per_class=100, seed=0):
    """Two well-separated 2-D Gaussian blobs (a trivially learnable problem)."""
    rng = np.random.default_rng(seed)
    a = rng.normal(loc=(-2, -2), scale=0.5, size=(n_per_class, 2))
    b = rng.normal(loc=(2, 2), scale=0.5, size=(n_per_class, 2))
    x = np.concatenate([a, b])
    y = np.concatenate([np.zeros(n_per_class), np.ones(n_per_class)]).astype(np.int64)
    return x, y


class TestOptimizers:
    def test_adam_converges_on_quadratic(self):
        opt = Adam(learning_rate=0.1)
        param = np.array([5.0])
        for _ in range(200):
            opt.step([param], [2.0 * param])
        assert abs(param[0]) < 0.1

    def test_adam_validation_and_reset(self):
        with pytest.raises(ValueError):
            Adam(learning_rate=-1)
        with pytest.raises(ValueError):
            Adam(beta1=1.5)
        opt = Adam()
        p = np.ones(1)
        opt.step([p], [np.ones(1)])
        opt.reset()
        assert opt._t == 0


class TestSequential:
    def test_add_returns_the_model(self):
        model = Sequential(name="toy")
        assert model.add(Dense(2, 4, activation="relu")).add(Dense(4, 2)) is model
        assert len(model.layers) == 2

    def test_fit_learns_blobs(self):
        x, y = make_blobs()
        model = Sequential([Dense(2, 8, activation="relu", rng=np.random.default_rng(1)),
                            Dense(8, 2, rng=np.random.default_rng(2))])
        history = model.fit(x, y, epochs=20, batch_size=32, optimizer=Adam(0.01))
        assert history.accuracy[-1] > 0.95
        loss, accuracy = model.evaluate(x, y)
        assert accuracy > 0.95
        assert model.misclassification_rate(x, y) < 0.05

    def test_fit_with_validation_history(self):
        x, y = make_blobs(50)
        model = Sequential([Dense(2, 4, activation="relu"), Dense(4, 2)])
        history = model.fit(
            x, y, epochs=3, validation_data=(x, y), optimizer=Adam(0.01)
        )
        assert len(history.val_loss) == 3
        assert len(history.as_dict()["val_accuracy"]) == 3

    def test_fit_rejects_mismatched_samples(self):
        model = Sequential([Dense(2, 2)])
        with pytest.raises(ValueError):
            model.fit(np.zeros((4, 2)), np.zeros(3, dtype=np.int64))

    def test_fit_rejects_negative_batch_size(self):
        x, y = make_blobs(4)
        with pytest.raises(ValueError, match="batch_size must be a positive integer"):
            Sequential([Dense(2, 2)]).fit(x, y, batch_size=-1)

    def test_fit_rejects_zero_batch_size(self):
        x, y = make_blobs(4)
        with pytest.raises(ValueError, match="batch_size must be a positive integer"):
            Sequential([Dense(2, 2)]).fit(x, y, batch_size=0)

    @pytest.mark.parametrize("batch_size", [2.5, True, "8"])
    def test_fit_rejects_non_integer_batch_size(self, batch_size):
        x, y = make_blobs(4)
        with pytest.raises(ValueError, match="batch_size must be a positive integer"):
            Sequential([Dense(2, 2)]).fit(x, y, batch_size=batch_size)

    def test_fit_rejects_negative_epochs(self):
        x, y = make_blobs(4)
        with pytest.raises(ValueError, match="epochs must be a non-negative integer"):
            Sequential([Dense(2, 2)]).fit(x, y, epochs=-1)

    def test_fit_zero_epochs_trains_nothing(self):
        x, y = make_blobs(4)
        model = Sequential([Dense(2, 2)])
        before = [p.copy() for layer in model.layers for p in layer.params]
        history = model.fit(x, y, epochs=0)
        assert history.loss == []
        for old, new in zip(before, [p for layer in model.layers for p in layer.params]):
            np.testing.assert_array_equal(old, new)

    def test_fit_rejects_zero_samples(self):
        model = Sequential([Dense(2, 2)])
        with pytest.raises(ValueError, match="x must hold at least one sample"):
            model.fit(np.zeros((0, 2)), np.zeros(0, dtype=np.int64))

    def test_evaluate_rejects_zero_batch_size(self):
        x, y = make_blobs(4)
        with pytest.raises(ValueError, match="batch_size must be a positive integer"):
            Sequential([Dense(2, 2)]).evaluate(x, y, batch_size=0)

    def test_evaluate_rejects_zero_samples(self):
        model = Sequential([Dense(2, 2)])
        with pytest.raises(ValueError, match="x must hold at least one sample"):
            model.evaluate(np.zeros((0, 2)), np.zeros(0, dtype=np.int64))

    def test_retrain_and_misclassification_rate_inherit_checks(self):
        x, y = make_blobs(4)
        model = Sequential([Dense(2, 2)])
        with pytest.raises(ValueError, match="batch_size"):
            retrain(model, x, y, batch_size=0)
        with pytest.raises(ValueError, match="x must hold at least one sample"):
            model.misclassification_rate(x[:0], y[:0])

    def test_dropout_only_active_in_training(self):
        model = Sequential([Dense(2, 8), Dropout(0.9, rng=np.random.default_rng(0)), Dense(8, 2)])
        x = np.ones((4, 2))
        out1 = model.forward(x, training=False)
        out2 = model.forward(x, training=False)
        np.testing.assert_allclose(out1, out2)

    def test_frozen_layers_not_updated(self):
        frozen = FrozenConv2D(1, 2, 3, padding=1, activation="sign")
        frozen_weights_before = frozen.weights.copy()
        model = Sequential([frozen, Flatten(), Dense(2 * 8 * 8, 2)])
        x = np.random.default_rng(0).random((16, 1, 8, 8))
        y = np.random.default_rng(1).integers(0, 2, 16)
        model.fit(x, y, epochs=2, optimizer=Adam(0.01))
        np.testing.assert_allclose(frozen.weights, frozen_weights_before)


class TestLeNetBuilders:
    def test_small_variant_shapes(self):
        model = build_lenet5_small(seed=1)
        out = model.forward(np.zeros((2, 1, 28, 28)))
        assert out.shape == (2, 10)
        assert isinstance(model.layers[0], Conv2D)
        assert model.layers[0].filters == 32

    def test_sign_first_activation(self):
        model = build_lenet5_small(first_activation="sign")
        first_out = model.layers[0].forward(np.random.default_rng(0).random((1, 1, 28, 28)))
        assert set(np.unique(first_out)).issubset({-1.0, 0.0, 1.0})

    def test_rejects_odd_image_size(self):
        with pytest.raises(ValueError):
            build_lenet5_small(image_size=27)


class TestQuantizationHelpers:
    def test_scale_kernels(self):
        kernels = np.array([[[2.0, -1.0]], [[0.5, 0.25]], [[0.0, 0.0]]])
        scaled, scales = scale_kernels(kernels)
        np.testing.assert_allclose(np.abs(scaled).max(axis=(1, 2)), [1.0, 1.0, 0.0])
        np.testing.assert_allclose(scales, [2.0, 0.5, 1.0])
        with pytest.raises(ValueError):
            scale_kernels(np.zeros(3))

    def test_quantize_weights(self):
        w = np.array([0.3, -0.3])
        q = quantize_weights(w, 3)
        np.testing.assert_allclose(q, [0.25, -0.25])
        with pytest.raises(ValueError):
            quantize_weights(np.array([1.5]), 3)
        with pytest.raises(ValueError, match="finite"):
            quantize_weights(np.array([0.25, np.nan]), 3)

    def test_prepare_first_layer_weights(self):
        rng = np.random.default_rng(0)
        w = rng.normal(size=(4, 1, 3, 3)) * 3.0
        prepared = prepare_first_layer_weights(w, precision=4)
        assert np.abs(prepared).max() <= 1.0
        grid_step = 2 / 16
        np.testing.assert_allclose(
            prepared / grid_step, np.round(prepared / grid_step), atol=1e-9
        )
        unscaled = prepare_first_layer_weights(w, precision=4, scale=False)
        assert np.abs(unscaled).max() <= 1.0

    def test_soft_threshold(self):
        values = np.array([-0.05, 0.2, 0.01])
        np.testing.assert_allclose(soft_threshold(values, 0.1), [0.0, 0.2, 0.0])
        np.testing.assert_allclose(soft_threshold(values, 0.0), values)
        with pytest.raises(ValueError):
            soft_threshold(values, -0.1)


class TestRetrainingWorkflow:
    def _toy_conv_model(self, seed=0):
        rng = np.random.default_rng(seed)
        return Sequential(
            [
                Conv2D(1, 4, 3, padding=1, activation="relu", rng=rng),
                MaxPool2D(2),
                Flatten(),
                Dense(4 * 7 * 7, 10, rng=rng),
            ],
            name="toy-conv",
        )

    def _toy_data(self, n=64, seed=0):
        rng = np.random.default_rng(seed)
        x = rng.random((n, 1, 14, 14))
        y = rng.integers(0, 10, n)
        return x, y

    def test_freeze_first_layer_replaces_and_freezes(self):
        model = self._toy_conv_model()
        weights = np.sign(model.layers[0].weights)
        frozen_model = freeze_first_layer(model, weights, activation=Sign())
        assert isinstance(frozen_model.layers[0], FrozenConv2D)
        assert frozen_model.layers[0].trainable is False
        np.testing.assert_allclose(frozen_model.layers[0].weights, weights)
        # Original model untouched.
        assert not isinstance(model.layers[0], FrozenConv2D)

    def test_freeze_requires_conv_layer(self):
        dense_only = Sequential([Dense(4, 2)])
        with pytest.raises(ValueError):
            freeze_first_layer(dense_only, np.zeros((1, 1, 3, 3)))

    def test_quantize_and_freeze_properties(self):
        model = self._toy_conv_model()
        frozen_model = quantize_and_freeze(model, precision=4)
        frozen = frozen_model.layers[0]
        assert isinstance(frozen, FrozenConv2D)
        assert np.abs(frozen.weights).max() <= 1.0
        assert isinstance(frozen.activation, Sign)
        np.testing.assert_allclose(frozen.bias, 0.0)

    def test_retrain_improves_frozen_model(self):
        # After swapping in a sign/quantized first layer, retraining the rest
        # of the network must not degrade accuracy (it should recover it).
        rng = np.random.default_rng(5)
        x = rng.random((120, 1, 14, 14))
        y = (x.mean(axis=(1, 2, 3)) > 0.5).astype(np.int64)
        model = Sequential(
            [
                Conv2D(1, 4, 3, padding=1, activation="relu", rng=rng),
                MaxPool2D(2),
                Flatten(),
                Dense(4 * 7 * 7, 2, rng=rng),
            ]
        )
        model.fit(x, y, epochs=5, optimizer=Adam(0.01))
        frozen_model = quantize_and_freeze(model, precision=3)
        before = frozen_model.misclassification_rate(x, y)
        history = retrain(frozen_model, x, y, epochs=5, optimizer=Adam(0.01))
        after = frozen_model.misclassification_rate(x, y)
        assert after <= before + 1e-9
        assert len(history.loss) == 5
