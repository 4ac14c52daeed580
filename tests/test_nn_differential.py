"""Differential tests: the training layers against their references.

``tests/nn_oracle.py`` keeps the patch-row ``im2col`` / ``col2im``, the
reshape/argmax pooling, the ``einsum`` convolutions and the training loop
with full back-propagation.  Pooling, the SC-resolution layer's signs,
the column layout and ``fit`` must match them bit for bit; the convolutions
reorder float sums, so their outputs and gradients must agree within a
float64 tolerance fixed here in advance.
"""

import copy

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import nn_oracle
from repro.nn import (
    Adam,
    Conv2D,
    Dense,
    MaxPool2D,
    StochasticResolutionConv2D,
    build_lenet5_small,
    col2im,
    im2col,
    prepare_first_layer_weights,
    quantize_and_freeze,
    retrain,
)

#: Tolerance for results whose float sums are reordered (float64 throughout).
RTOL = ATOL = 1e-12

seeds = st.integers(0, 2**32 - 1)


def assert_identical(actual, expected):
    """Same shape, dtype and bytes (signed zeros included)."""
    assert actual.shape == expected.shape
    assert actual.dtype == expected.dtype
    assert actual.tobytes() == expected.tobytes()


def assert_close(actual, expected):
    np.testing.assert_allclose(actual, expected, rtol=RTOL, atol=ATOL)


@st.composite
def conv_geometries(draw):
    """(batch, channels, height, width, kernel, stride, padding) of a valid conv."""
    kernel = (draw(st.integers(1, 4)), draw(st.integers(1, 4)))
    padding = draw(st.integers(0, 2))
    stride = draw(st.integers(1, 2))
    height = draw(st.integers(max(1, kernel[0] - 2 * padding), 9))
    width = draw(st.integers(max(1, kernel[1] - 2 * padding), 9))
    batch, channels = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    return batch, channels, height, width, kernel, stride, padding


class TestColumns:
    @settings(max_examples=100, deadline=None)
    @given(geometry=conv_geometries(), seed=seeds)
    def test_im2col_and_col2im_are_the_patch_rows_transposed(self, geometry, seed):
        batch, channels, height, width, kernel, stride, padding = geometry
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(batch, channels, height, width))
        cols = im2col(x, kernel, stride, padding)
        rows = nn_oracle.im2col(x, kernel, stride, padding)
        assert_identical(cols, rows.transpose(0, 2, 1))
        grad = rng.normal(size=cols.shape)
        assert_identical(
            col2im(grad, x.shape, kernel, stride, padding),
            nn_oracle.col2im(grad.transpose(0, 2, 1).copy(), x.shape, kernel, stride, padding),
        )


class TestMaxPool:
    @settings(max_examples=150, deadline=None)
    @given(
        p=st.sampled_from([1, 2, 3]),
        shape=st.tuples(*[st.integers(1, 3)] * 2, *[st.integers(1, 4)] * 2),
        ties=st.booleans(),
        seed=seeds,
    )
    def test_forward_and_backward_match_oracle(self, p, shape, ties, seed):
        rng = np.random.default_rng(seed)
        batch, channels, out_h, out_w = shape
        x_shape = (batch, channels, out_h * p, out_w * p)
        # Tie-heavy inputs exercise the first-argmax rule.
        x = rng.integers(-1, 2, x_shape).astype(np.float64) if ties else rng.normal(size=x_shape)
        grad = rng.normal(size=shape)
        pool, reference = MaxPool2D(p), nn_oracle.MaxPool2D(p)
        assert_identical(pool.forward(x), reference.forward(x))
        assert_identical(pool.backward(grad), reference.backward(grad))

    @settings(max_examples=60, deadline=None)
    @given(p=st.sampled_from([1, 2, 3]), seed=seeds)
    def test_nan_in_a_window_gives_nan(self, p, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(2, 2, 3 * p, 3 * p))
        x[rng.random(x.shape) < 0.1] = np.nan
        out = MaxPool2D(p).forward(x)
        expected = nn_oracle.MaxPool2D(p).forward(x)
        np.testing.assert_array_equal(np.isnan(out), np.isnan(expected))
        assert np.array_equal(out, expected, equal_nan=True)

    @pytest.mark.parametrize("p, dtype", [(1, np.uint8), (2, np.uint8), (16, np.uint8),
                                          (17, np.uint16)])
    def test_argmax_is_stored_in_the_smallest_unsigned_dtype(self, p, dtype):
        pool = MaxPool2D(p)
        x = np.random.default_rng(p).normal(size=(1, 2, 2 * p, 2 * p))
        assert_identical(pool.forward(x), nn_oracle.MaxPool2D(p).forward(x))
        assert pool._argmax.dtype == dtype
        assert pool._argmax.shape == (1, 2, 2, 2)


class TestStochasticResolutionConv2D:
    @settings(max_examples=120, deadline=None)
    @given(
        precision=st.integers(2, 12),
        soft_threshold=st.sampled_from([0.0, 0.02, 0.1]),
        stride=st.sampled_from([1, 2]),
        padding=st.integers(0, 2),
        kernel=st.sampled_from([1, 3, 5]),
        filters=st.integers(1, 40),
        channels=st.integers(1, 2),
        conditioned=st.booleans(),
        seed=seeds,
    )
    def test_signs_match_oracle(
        self, precision, soft_threshold, stride, padding, kernel, filters, channels,
        conditioned, seed,
    ):
        rng = np.random.default_rng(seed)
        args = (channels, filters, kernel)
        kwargs = dict(precision=precision, stride=stride, padding=padding,
                      soft_threshold=soft_threshold)
        layer = StochasticResolutionConv2D(*args, **kwargs)
        reference = nn_oracle.StochasticResolutionConv2D(*args, **kwargs)
        weights = rng.uniform(-1.0, 1.0, layer.weights.shape)
        if conditioned:
            weights = prepare_first_layer_weights(weights, precision)
        layer.weights[...] = reference.weights[...] = weights
        size = int(rng.integers(kernel, kernel + 8))
        # Pixels outside [0, 1] exercise the converter's clipping.
        x = rng.uniform(-0.1, 1.1, (2, channels, size, size))
        assert_identical(layer.forward(x), reference.forward(x))

        grad = rng.normal(size=(2, filters) + layer.output_shape(size, size))
        assert_close(layer.backward(grad), reference.backward(grad))
        for mine, theirs in zip(layer.grads, reference.grads):
            assert_close(mine, theirs)


class TestConv2D:
    @settings(max_examples=120, deadline=None)
    @given(
        geometry=conv_geometries(),
        filters=st.integers(1, 5),
        activation=st.sampled_from([None, "relu"]),
        seed=seeds,
    )
    def test_reordered_sums_stay_within_tolerance(self, geometry, filters, activation, seed):
        batch, channels, height, width, kernel, stride, padding = geometry
        rng = np.random.default_rng(seed)
        layer = Conv2D(channels, filters, kernel, stride=stride, padding=padding,
                       activation=activation, rng=np.random.default_rng(seed))
        reference = nn_oracle.Conv2D(channels, filters, kernel, stride=stride, padding=padding,
                                     activation=activation, rng=np.random.default_rng(seed))
        layer.bias[...] = reference.bias[...] = rng.normal(size=filters)
        x = rng.normal(size=(batch, channels, height, width))
        assert_close(layer.forward(x), reference.forward(x))

        grad = rng.normal(size=(batch, filters) + layer.output_shape(height, width))
        assert_close(layer.backward(grad), reference.backward(grad))
        for mine, theirs in zip(layer.grads, reference.grads):
            assert_close(mine, theirs)


class TestParameterGradientsOnly:
    """``input_grad=False`` stores the same parameter gradients and returns None."""

    @pytest.mark.parametrize(
        "make, shape",
        [
            (lambda: Dense(6, 3, activation="relu"), (4, 6)),
            (lambda: Conv2D(2, 3, 3, padding=1, activation="relu"), (2, 2, 5, 5)),
            (lambda: StochasticResolutionConv2D(1, 4, 3, precision=6, padding=1), (2, 1, 6, 6)),
        ],
    )
    def test_input_grad_false(self, make, shape):
        rng = np.random.default_rng(0)
        layer = make()
        x = rng.random(shape)
        grad = rng.normal(size=layer.forward(x).shape)
        assert layer.backward(grad).shape == x.shape
        full = [g.copy() for g in layer.grads]
        for g in layer.grads:
            g[...] = np.nan
        assert layer.backward(grad, input_grad=False) is None
        for mine, expected in zip(layer.grads, full):
            assert_identical(mine, expected)


def _sc_model(seed):
    return quantize_and_freeze(
        build_lenet5_small(seed=seed, image_size=12), 8, sc_resolution=True, soft_threshold=0.02
    )


class TestFit:
    @settings(max_examples=8, deadline=None)
    @given(
        seed=st.integers(0, 1000),
        batch_size=st.sampled_from([5, 8, 16]),
        sc_resolution=st.booleans(),
    )
    def test_fit_matches_full_backward_loop(self, seed, batch_size, sc_resolution):
        # Stopping back-propagation at the first trainable layer must leave
        # the parameters bit-identical to back-propagating through all of it.
        model = _sc_model(seed) if sc_resolution else build_lenet5_small(seed=seed, image_size=12)
        reference = copy.deepcopy(model)
        rng = np.random.default_rng(seed)
        x = rng.random((24, 1, 12, 12))
        y = rng.integers(0, 10, 24)
        history = model.fit(x, y, epochs=2, batch_size=batch_size, optimizer=Adam(),
                            rng=np.random.default_rng(seed))
        losses = nn_oracle.fit(reference, x, y, epochs=2, batch_size=batch_size,
                               optimizer=Adam(), rng=np.random.default_rng(seed))
        assert history.loss == losses
        for mine, expected in zip(nn_oracle.parameters(model), nn_oracle.parameters(reference)):
            assert_identical(mine, expected)

    def test_retrain_backpropagates_only_to_first_trainable_layer(self):
        model = _sc_model(0)
        calls = {i: [] for i in range(len(model.layers))}
        for i, layer in enumerate(model.layers):
            def spy(*args, _i=i, _backward=layer.backward, **kwargs):
                calls[_i].append(kwargs)
                return _backward(*args, **kwargs)

            layer.backward = spy
        rng = np.random.default_rng(1)
        retrain(model, rng.random((20, 1, 12, 12)), rng.integers(0, 10, 20), epochs=1,
                batch_size=8)
        batches = 3
        assert calls[0] == [] and calls[1] == []
        assert calls[2] == [{"input_grad": False}] * batches
        for i in range(3, len(model.layers)):
            assert calls[i] == [{}] * batches
