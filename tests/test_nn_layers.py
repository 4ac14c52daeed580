"""Tests for NN layers, including numerical gradient checks."""

import numpy as np
import pytest

from repro.nn import (
    Conv2D,
    Dense,
    Dropout,
    Flatten,
    FrozenConv2D,
    MaxPool2D,
    col2im,
    conv_output_hw,
    im2col,
)


def mean_squared_error(predictions, targets):
    """Mean squared error over all elements and its gradient."""
    diff = predictions - targets
    return float(np.mean(diff**2)), 2.0 * diff / diff.size


def numerical_gradient(fn, array, eps=1e-6):
    """Central-difference gradient of a scalar function w.r.t. an array."""
    grad = np.zeros_like(array)
    it = np.nditer(array, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        original = array[idx]
        array[idx] = original + eps
        plus = fn()
        array[idx] = original - eps
        minus = fn()
        array[idx] = original
        grad[idx] = (plus - minus) / (2 * eps)
        it.iternext()
    return grad


class TestConvOps:
    def test_conv_output_hw(self):
        assert conv_output_hw(28, 28, (5, 5), 1, 2) == (28, 28)
        assert conv_output_hw(28, 28, (5, 5), 1, 0) == (24, 24)
        with pytest.raises(ValueError):
            conv_output_hw(3, 3, (5, 5), 1, 0)

    def test_im2col_shape_and_content(self):
        # Channel-major columns: (B, C*kh*kw, out_h*out_w), column p = patch p.
        x = np.arange(2 * 1 * 4 * 4, dtype=float).reshape(2, 1, 4, 4)
        cols = im2col(x, (3, 3), stride=1, padding=0)
        assert cols.shape == (2, 9, 4)
        np.testing.assert_allclose(cols[0, :, 0], x[0, 0, :3, :3].ravel())

    def test_im2col_rejects_bad_rank(self):
        with pytest.raises(ValueError):
            im2col(np.zeros((4, 4)), (2, 2))

    def test_col2im_adjointness(self):
        # <im2col(x), y> == <x, col2im(y)> -- the defining adjoint property
        # that makes the convolution backward pass correct.
        rng = np.random.default_rng(0)
        x = rng.normal(size=(2, 3, 6, 6))
        kernel, stride, padding = (3, 3), 1, 1
        cols = im2col(x, kernel, stride, padding)
        y = rng.normal(size=cols.shape)
        lhs = float(np.sum(cols * y))
        rhs = float(np.sum(x * col2im(y, x.shape, kernel, stride, padding)))
        assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_col2im_shape_check(self):
        # A 4x4 input, 3x3 kernel, padding 1 has 16 patches of 9 taps: columns
        # are (1, 9, 16); the patch-row layout (1, 16, 9) is rejected.
        assert col2im(np.zeros((1, 9, 16)), (1, 1, 4, 4), (3, 3), 1, 1).shape == (1, 1, 4, 4)
        with pytest.raises(ValueError):
            col2im(np.zeros((1, 16, 9)), (1, 1, 4, 4), (3, 3), 1, 1)


class TestDense:
    def test_forward_shape_and_validation(self):
        layer = Dense(4, 3, activation="relu")
        out = layer.forward(np.zeros((2, 4)))
        assert out.shape == (2, 3)
        with pytest.raises(ValueError):
            layer.forward(np.zeros((2, 5)))
        assert [p.shape for p in layer.params] == [(4, 3), (3,)]

    def test_gradients_match_numerical(self):
        rng = np.random.default_rng(1)
        layer = Dense(5, 4, activation="relu", rng=rng)
        x = rng.normal(size=(3, 5))
        target = rng.normal(size=(3, 4))
        def compute_loss():
            return mean_squared_error(layer.forward(x), target)[0]

        out = layer.forward(x)
        _, grad_out = mean_squared_error(out, target)
        grad_x = layer.backward(grad_out)

        np.testing.assert_allclose(
            layer.grads[0], numerical_gradient(compute_loss, layer.weights), atol=1e-6
        )
        np.testing.assert_allclose(
            layer.grads[1], numerical_gradient(compute_loss, layer.bias), atol=1e-6
        )
        np.testing.assert_allclose(
            grad_x, numerical_gradient(compute_loss, x), atol=1e-6
        )


class TestConv2D:
    def test_forward_shape(self):
        layer = Conv2D(1, 8, 5, padding=2, activation="relu")
        out = layer.forward(np.zeros((2, 1, 28, 28)))
        assert out.shape == (2, 8, 28, 28)
        assert layer.output_shape(28, 28) == (28, 28)
        with pytest.raises(ValueError):
            layer.forward(np.zeros((2, 3, 28, 28)))

    def test_forward_matches_direct_convolution(self):
        rng = np.random.default_rng(2)
        layer = Conv2D(2, 3, 3, padding=1, activation=None, rng=rng)
        x = rng.normal(size=(1, 2, 5, 5))
        out = layer.forward(x)
        # Direct computation at output position (h=2, w=3): with stride 1 the
        # window starts at the same coordinates in the padded input.
        padded = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
        manual = np.sum(padded[0, :, 2:5, 3:6] * layer.weights[1]) + layer.bias[1]
        assert out[0, 1, 2, 3] == pytest.approx(manual)

    def test_gradients_match_numerical(self):
        rng = np.random.default_rng(3)
        layer = Conv2D(2, 3, 3, padding=1, activation="relu", rng=rng)
        x = rng.normal(size=(2, 2, 5, 5))
        target = rng.normal(size=(2, 3, 5, 5))
        def compute_loss():
            return mean_squared_error(layer.forward(x), target)[0]

        out = layer.forward(x)
        _, grad_out = mean_squared_error(out, target)
        grad_x = layer.backward(grad_out)

        np.testing.assert_allclose(
            layer.grads[0], numerical_gradient(compute_loss, layer.weights), atol=1e-5
        )
        np.testing.assert_allclose(
            layer.grads[1], numerical_gradient(compute_loss, layer.bias), atol=1e-5
        )
        np.testing.assert_allclose(
            grad_x, numerical_gradient(compute_loss, x), atol=1e-5
        )

    def test_strided_convolution(self):
        layer = Conv2D(1, 2, 3, stride=2, padding=1)
        out = layer.forward(np.zeros((1, 1, 8, 8)))
        assert out.shape == (1, 2, 4, 4)


class TestFrozenConv2D:
    def test_from_conv_copies_geometry_and_weights(self):
        base = Conv2D(1, 4, 3, padding=1)
        new_weights = np.full_like(base.weights, 0.5)
        frozen = FrozenConv2D.from_conv(base, new_weights, activation="sign")
        assert frozen.trainable is False
        np.testing.assert_allclose(frozen.weights, 0.5)
        np.testing.assert_allclose(frozen.bias, 0.0)
        out = frozen.forward(np.ones((1, 1, 6, 6)))
        assert set(np.unique(out)).issubset({-1.0, 0.0, 1.0})

    def test_rejects_wrong_shape(self):
        base = Conv2D(1, 4, 3)
        with pytest.raises(ValueError):
            FrozenConv2D.from_conv(base, np.zeros((4, 1, 5, 5)))


class TestMaxPool2D:
    def test_forward(self):
        x = np.arange(16, dtype=float).reshape(1, 1, 4, 4)
        out = MaxPool2D(2).forward(x)
        np.testing.assert_allclose(out[0, 0], [[5, 7], [13, 15]])

    def test_backward_routes_to_argmax(self):
        pool = MaxPool2D(2)
        x = np.array([[[[1.0, 2.0], [3.0, 4.0]]]])
        pool.forward(x)
        grad = pool.backward(np.array([[[[10.0]]]]))
        np.testing.assert_allclose(grad, [[[[0, 0], [0, 10.0]]]])

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            MaxPool2D(0)
        with pytest.raises(ValueError):
            MaxPool2D(2).forward(np.zeros((1, 1, 5, 5)))
        with pytest.raises(ValueError):
            MaxPool2D(2).forward(np.zeros((1, 4, 4)))

    def test_gradient_matches_numerical(self):
        rng = np.random.default_rng(4)
        pool = MaxPool2D(2)
        x = rng.normal(size=(1, 2, 4, 4))
        target = rng.normal(size=(1, 2, 2, 2))
        def compute_loss():
            return mean_squared_error(pool.forward(x), target)[0]

        out = pool.forward(x)
        _, grad_out = mean_squared_error(out, target)
        grad_x = pool.backward(grad_out)
        np.testing.assert_allclose(
            grad_x, numerical_gradient(compute_loss, x), atol=1e-6
        )


class TestFlattenDropoutActivation:
    def test_flatten_roundtrip(self):
        layer = Flatten()
        x = np.arange(24, dtype=float).reshape(2, 3, 2, 2)
        out = layer.forward(x)
        assert out.shape == (2, 12)
        back = layer.backward(out)
        np.testing.assert_allclose(back, x)

    def test_dropout_inference_is_identity(self):
        layer = Dropout(0.5)
        x = np.ones((4, 10))
        np.testing.assert_allclose(layer.forward(x, training=False), x)

    def test_dropout_training_scales_kept_units(self):
        layer = Dropout(0.5, rng=np.random.default_rng(0))
        x = np.ones((1000, 1))
        out = layer.forward(x, training=True)
        kept = out[out > 0]
        np.testing.assert_allclose(kept, 2.0)
        assert 0.3 < (out > 0).mean() < 0.7
        grad = layer.backward(np.ones_like(x))
        np.testing.assert_allclose(grad, out)

    def test_dropout_rejects_bad_rate(self):
        with pytest.raises(ValueError):
            Dropout(1.0)
        with pytest.raises(ValueError):
            Dropout(-0.1)
