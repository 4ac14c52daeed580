"""Tests for the shared sliding-window (im2col) utilities."""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.nn import im2col
from repro.utils import conv_output_size, extract_patches, pad_images, patches_to_map


class TestConvOutputSize:
    @pytest.mark.parametrize(
        "size,kernel,stride,padding,expected",
        [(28, 5, 1, 0, 24), (28, 5, 1, 2, 28), (28, 2, 2, 0, 14), (24, 3, 1, 1, 24)],
    )
    def test_known_geometries(self, size, kernel, stride, padding, expected):
        assert conv_output_size(size, kernel, stride, padding) == expected

    def test_invalid_geometry(self):
        with pytest.raises(ValueError):
            conv_output_size(2, 5, 1, 0)


class TestPadImages:
    def test_zero_padding_is_identity(self):
        images = np.random.default_rng(0).random((2, 4, 4))
        assert pad_images(images, 0) is images

    def test_padding_shape_and_values(self):
        images = np.ones((1, 2, 2))
        padded = pad_images(images, 1)
        assert padded.shape == (1, 4, 4)
        assert padded[0, 0, 0] == 0.0
        assert padded[0, 1, 1] == 1.0

    def test_negative_padding_rejected(self):
        with pytest.raises(ValueError):
            pad_images(np.ones((1, 2, 2)), -1)


class TestExtractPatches:
    def test_simple_3x3_kernel2(self):
        image = np.arange(9, dtype=float).reshape(1, 3, 3)
        patches = extract_patches(image, (2, 2))
        assert patches.shape == (1, 4, 4)
        np.testing.assert_allclose(patches[0, 0], [0, 1, 3, 4])
        np.testing.assert_allclose(patches[0, 3], [4, 5, 7, 8])

    def test_same_padding_patch_count(self):
        images = np.random.default_rng(0).random((3, 28, 28))
        patches = extract_patches(images, (5, 5), padding=2)
        # Fig. 3: 784 windows per 28x28 image with "same" geometry.
        assert patches.shape == (3, 784, 25)

    def test_stride(self):
        images = np.random.default_rng(0).random((1, 6, 6))
        patches = extract_patches(images, (2, 2), stride=2)
        assert patches.shape == (1, 9, 4)

    def test_rejects_wrong_rank(self):
        with pytest.raises(ValueError):
            extract_patches(np.zeros((4, 4)), (2, 2))

    def test_matches_naive_implementation(self):
        rng = np.random.default_rng(5)
        images = rng.random((2, 7, 7))
        kh, kw, pad = 3, 3, 1
        patches = extract_patches(images, (kh, kw), padding=pad)
        padded = np.pad(images, ((0, 0), (pad, pad), (pad, pad)))
        out_size = 7
        naive = np.zeros((2, out_size * out_size, kh * kw))
        for b in range(2):
            idx = 0
            for i in range(out_size):
                for j in range(out_size):
                    naive[b, idx] = padded[b, i : i + kh, j : j + kw].ravel()
                    idx += 1
        np.testing.assert_allclose(patches, naive)

    @given(
        st.integers(min_value=3, max_value=10),
        st.integers(min_value=1, max_value=3),
        st.integers(min_value=1, max_value=2),
    )
    @settings(max_examples=30, deadline=None)
    def test_patch_count_matches_formula(self, size, kernel, stride):
        if kernel > size:
            return
        images = np.zeros((1, size, size))
        patches = extract_patches(images, (kernel, kernel), stride=stride)
        out = conv_output_size(size, kernel, stride, 0)
        assert patches.shape == (1, out * out, kernel * kernel)

    @given(
        st.integers(min_value=1, max_value=9),
        st.tuples(st.integers(min_value=1, max_value=5), st.integers(min_value=1, max_value=5)),
        st.integers(min_value=1, max_value=3),
        st.integers(min_value=0, max_value=2),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_binary_layers_see_the_same_pixels(self, size, kernel, stride, padding, seed):
        # The repro.nn conv layers unfold with im2col into channel-major
        # columns; for one channel, column p is exactly patch row p.
        assume(max(kernel) <= size + 2 * padding)
        images = np.random.default_rng(seed).random((2, size, size))
        columns = im2col(images[:, np.newaxis], kernel, stride, padding)
        np.testing.assert_array_equal(
            columns.transpose(0, 2, 1), extract_patches(images, kernel, stride, padding)
        )


class TestPatchesToMap:
    def test_roundtrip_layout(self):
        values = np.arange(2 * 4 * 3, dtype=float).reshape(2, 4, 3)
        maps = patches_to_map(values, (2, 2))
        assert maps.shape == (2, 3, 2, 2)
        # filter f at position (0, 1) is patch index 1
        assert maps[0, 0, 0, 1] == values[0, 1, 0]

    def test_bad_shape(self):
        with pytest.raises(ValueError):
            patches_to_map(np.zeros((1, 5, 2)), (2, 2))
