"""Tests for activations and losses of the NN substrate."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.nn import (
    Identity,
    ReLU,
    Sign,
    SoftmaxCrossEntropy,
    get_activation,
    one_hot,
    softmax,
)


class TestSoftmax:
    def test_rows_sum_to_one(self):
        logits = np.random.default_rng(0).normal(size=(5, 10))
        probs = softmax(logits, axis=1)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0)
        assert np.all(probs >= 0)

    def test_shift_invariance(self):
        logits = np.array([[1.0, 2.0, 3.0]])
        np.testing.assert_allclose(softmax(logits), softmax(logits + 100.0))

    def test_no_overflow_for_large_logits(self):
        probs = softmax(np.array([[1000.0, 0.0]]))
        assert np.isfinite(probs).all()


class TestActivations:
    def test_relu(self):
        act = ReLU()
        x = np.array([-1.0, 0.0, 2.0])
        np.testing.assert_allclose(act.forward(x), [0.0, 0.0, 2.0])
        np.testing.assert_allclose(act.backward(x, np.ones(3)), [0.0, 0.0, 1.0])

    def test_sign_values(self):
        act = Sign()
        x = np.array([-0.5, 0.0, 0.7])
        np.testing.assert_allclose(act.forward(x), [-1.0, 0.0, 1.0])

    def test_sign_soft_threshold(self):
        act = Sign(threshold=0.2)
        x = np.array([-0.5, 0.1, -0.1, 0.7])
        np.testing.assert_allclose(act.forward(x), [-1.0, 0.0, 0.0, 1.0])
        with pytest.raises(ValueError):
            Sign(threshold=-1)

    def test_sign_straight_through_gradient(self):
        act = Sign(clip=1.0)
        x = np.array([-2.0, -0.5, 0.5, 2.0])
        grad = act.backward(x, np.ones(4))
        np.testing.assert_allclose(grad, [0.0, 1.0, 1.0, 0.0])

    def test_identity_passes_values_and_gradients_through(self):
        x = np.linspace(-2, 2, 7)
        assert np.allclose(Identity().forward(x), x)
        assert np.allclose(Identity().backward(x, x), x)

    def test_get_activation_resolution(self):
        assert isinstance(get_activation("relu"), ReLU)
        assert isinstance(get_activation("SIGN"), Sign)
        assert isinstance(get_activation(None), Identity)
        relu = ReLU()
        assert get_activation(relu) is relu
        for name in ("swish9", "tanh", "sigmoid"):
            with pytest.raises(ValueError):
                get_activation(name)
        with pytest.raises(TypeError):
            get_activation(3.14)


class TestOneHot:
    def test_basic(self):
        out = one_hot(np.array([0, 2, 1]), 3)
        np.testing.assert_allclose(out, [[1, 0, 0], [0, 0, 1], [0, 1, 0]])

    def test_rejects_bad_labels(self):
        with pytest.raises(ValueError):
            one_hot(np.array([0, 3]), 3)
        with pytest.raises(ValueError):
            one_hot(np.array([[0], [1]]), 3)


class TestSoftmaxCrossEntropy:
    def test_perfect_prediction_low_loss(self):
        loss = SoftmaxCrossEntropy()
        logits = np.array([[10.0, -10.0], [-10.0, 10.0]])
        value, grad = loss.forward(logits, np.array([0, 1]))
        assert value < 1e-4
        assert grad.shape == logits.shape

    def test_gradient_matches_numerical(self):
        rng = np.random.default_rng(0)
        logits = rng.normal(size=(4, 5))
        targets = rng.integers(0, 5, size=4)
        loss = SoftmaxCrossEntropy()
        _, grad = loss.forward(logits, targets)
        eps = 1e-6
        numerical = np.zeros_like(logits)
        for i in range(logits.shape[0]):
            for j in range(logits.shape[1]):
                plus = logits.copy()
                plus[i, j] += eps
                minus = logits.copy()
                minus[i, j] -= eps
                numerical[i, j] = (
                    loss.forward(plus, targets)[0] - loss.forward(minus, targets)[0]
                ) / (2 * eps)
        np.testing.assert_allclose(grad, numerical, atol=1e-6)

    def test_accepts_one_hot_targets(self):
        loss = SoftmaxCrossEntropy()
        logits = np.zeros((2, 3))
        value_int, _ = loss.forward(logits, np.array([0, 2]))
        value_oh, _ = loss.forward(logits, one_hot(np.array([0, 2]), 3))
        assert value_int == pytest.approx(value_oh)

    def test_rejects_bad_shapes(self):
        loss = SoftmaxCrossEntropy()
        with pytest.raises(ValueError):
            loss.forward(np.zeros(3), np.array([0]))
        with pytest.raises(ValueError):
            loss.forward(np.zeros((2, 3)), np.zeros((3, 3)))

    @given(st.integers(min_value=2, max_value=8))
    @settings(max_examples=10, deadline=None)
    def test_uniform_logits_loss_is_log_classes(self, classes):
        loss = SoftmaxCrossEntropy()
        logits = np.zeros((3, classes))
        value, _ = loss.forward(logits, np.zeros(3, dtype=np.int64))
        assert value == pytest.approx(np.log(classes), rel=1e-6)
