"""Tests for the stochastic convolution layer."""

import numpy as np
import pytest

from repro.sc import StochasticConv2D, new_sc_engine, old_sc_engine
from repro.utils import extract_patches


def reference_convolution(images, kernels, padding):
    """Exact floating-point convolution used as the accuracy reference."""
    filters = kernels.shape[0]
    kh, kw = kernels.shape[1:]
    patches = extract_patches(images, (kh, kw), padding=padding)
    flat = kernels.reshape(filters, -1)
    values = patches @ flat.T  # (batch, P, F)
    side = images.shape[1] + 2 * padding - kh + 1
    return values.reshape(images.shape[0], side, side, filters).transpose(0, 3, 1, 2)


@pytest.fixture(scope="module")
def small_problem():
    rng = np.random.default_rng(0)
    images = rng.random((2, 8, 8))
    kernels = rng.uniform(-1, 1, size=(3, 3, 3))
    return images, kernels


class TestConstruction:
    def test_rejects_bad_kernels(self):
        with pytest.raises(ValueError):
            StochasticConv2D(np.zeros((3, 3)))
        with pytest.raises(ValueError):
            StochasticConv2D(np.full((1, 3, 3), 2.0))
        with pytest.raises(ValueError, match="finite"):
            StochasticConv2D(np.full((1, 3, 3), np.nan))
        with pytest.raises(ValueError):
            StochasticConv2D(np.zeros((1, 3, 3)), soft_threshold=-1)

    def test_properties(self, small_problem):
        _, kernels = small_problem
        layer = StochasticConv2D(kernels, padding=1)
        assert layer.filters == 3
        assert layer.kernel_size == (3, 3)
        assert layer.output_shape((8, 8)) == (8, 8)
        assert "StochasticConv2D" in repr(layer)

    def test_rejects_bad_inputs(self, small_problem):
        _, kernels = small_problem
        layer = StochasticConv2D(kernels)
        with pytest.raises(ValueError):
            layer.forward(np.zeros((4, 4)))
        with pytest.raises(ValueError):
            layer.forward(np.full((1, 4, 4), 2.0))


class TestForward:
    def test_output_shapes(self, small_problem):
        images, kernels = small_problem
        layer = StochasticConv2D(kernels, engine=new_sc_engine(precision=5), padding=1)
        result = layer.forward(images)
        assert result.sign.shape == (2, 3, 8, 8)
        assert result.value.shape == (2, 3, 8, 8)
        assert result.positive_count.shape == (2, 3, 8, 8)
        assert set(np.unique(result.sign)).issubset({-1, 0, 1})

    def test_signs_match_reference_convolution(self, small_problem):
        images, kernels = small_problem
        layer = StochasticConv2D(kernels, engine=new_sc_engine(precision=8), padding=1)
        result = layer.forward(images)
        reference = reference_convolution(images, kernels, padding=1)
        # Only clear-cut (not near-zero) outputs are expected to match signs.
        confident = np.abs(reference) > 0.5
        agreement = np.mean(
            np.sign(reference[confident]) == result.sign[confident]
        )
        assert agreement > 0.95

    def test_values_track_reference(self, small_problem):
        images, kernels = small_problem
        layer = StochasticConv2D(kernels, engine=new_sc_engine(precision=8), padding=1)
        result = layer.forward(images)
        reference = reference_convolution(images, kernels, padding=1)
        error = np.abs(result.value - reference)
        assert np.median(error) < 0.2

    def test_soft_threshold_zeroes_small_outputs(self, small_problem):
        images, kernels = small_problem
        plain = StochasticConv2D(kernels, engine=new_sc_engine(precision=6), padding=1)
        thresholded = StochasticConv2D(
            kernels,
            engine=new_sc_engine(precision=6),
            padding=1,
            soft_threshold=0.1,
        )
        zeros_plain = int(np.sum(plain.forward(images).sign == 0))
        zeros_thresholded = int(np.sum(thresholded.forward(images).sign == 0))
        assert zeros_thresholded >= zeros_plain

    def test_old_engine_noisier_than_new(self, small_problem):
        images, kernels = small_problem
        reference = reference_convolution(images, kernels, padding=1)
        new_layer = StochasticConv2D(kernels, engine=new_sc_engine(precision=6), padding=1)
        old_layer = StochasticConv2D(kernels, engine=old_sc_engine(precision=6), padding=1)
        new_err = np.mean((new_layer.forward(images).value - reference) ** 2)
        old_err = np.mean((old_layer.forward(images).value - reference) ** 2)
        assert new_err < old_err
