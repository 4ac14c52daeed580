"""Tests for the synthetic digit generator and the MNIST loader plumbing."""

import gzip
import struct

import numpy as np
import pytest

from repro.datasets import (
    SyntheticDigits,
    generate_digits,
    load_dataset,
    load_mnist,
    read_idx,
    render_digit,
)


class TestRenderDigit:
    def test_output_shape_and_range(self):
        rng = np.random.default_rng(0)
        image = render_digit(3, rng)
        assert image.shape == (28, 28)
        assert image.min() >= 0.0 and image.max() <= 1.0

    def test_all_digits_renderable(self):
        rng = np.random.default_rng(1)
        for digit in range(10):
            image = render_digit(digit, rng)
            assert image.sum() > 5.0  # some ink on the page

    def test_invalid_digit(self):
        with pytest.raises(ValueError):
            render_digit(10, np.random.default_rng(0))

    def test_more_segments_more_ink(self):
        # Digit 8 lights all seven segments, digit 1 only two: with noise off,
        # the average 8 must contain clearly more ink than the average 1.
        rng = np.random.default_rng(2)
        ink_8 = np.mean([render_digit(8, rng, noise=0).sum() for _ in range(10)])
        ink_1 = np.mean([render_digit(1, rng, noise=0).sum() for _ in range(10)])
        assert ink_8 > 1.5 * ink_1

    def test_randomization_changes_images(self):
        rng = np.random.default_rng(3)
        a = render_digit(5, rng)
        b = render_digit(5, rng)
        assert not np.allclose(a, b)


class TestGenerateDigits:
    def test_shapes_and_balance(self):
        images, labels = generate_digits(200, rng=0)
        assert images.shape == (200, 28, 28)
        assert labels.shape == (200,)
        counts = np.bincount(labels, minlength=10)
        assert counts.min() >= 15  # balanced round-robin assignment

    def test_reproducible(self):
        a_images, a_labels = generate_digits(20, rng=7)
        b_images, b_labels = generate_digits(20, rng=7)
        np.testing.assert_array_equal(a_labels, b_labels)
        np.testing.assert_allclose(a_images, b_images)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            generate_digits(0)

    def test_classes_are_separable_by_template_matching(self):
        # A nearest-mean classifier on clean class templates should beat
        # chance (10 %) by a wide margin -- the dataset is learnable even by a
        # classifier far weaker than the CNNs used in the experiments.
        rng = np.random.default_rng(0)
        templates = np.stack(
            [np.mean([render_digit(d, rng) for _ in range(20)], axis=0) for d in range(10)]
        )
        images, labels = generate_digits(200, rng=1)
        flat_templates = templates.reshape(10, -1)
        flat_images = images.reshape(200, -1)
        predictions = np.argmin(
            ((flat_images[:, None, :] - flat_templates[None, :, :]) ** 2).sum(-1), axis=1
        )
        assert (predictions == labels).mean() > 0.45


class TestSyntheticDigitsContainer:
    def test_generate_split(self):
        data = SyntheticDigits.generate(train_size=50, test_size=20, seed=0)
        assert data.x_train.shape == (50, 28, 28)
        assert data.x_test.shape == (20, 28, 28)
        assert data.y_train.dtype == np.int64

    def test_quantized_pixels(self):
        data = SyntheticDigits.generate(train_size=10, test_size=5, seed=0)
        quantized = data.as_quantized_pixels(bits=4)
        levels = quantized.x_train * 15
        np.testing.assert_allclose(levels, np.round(levels), atol=1e-9)


class TestIdxLoader:
    def _write_idx_images(self, path, array):
        with open(path, "wb") as handle:
            handle.write(bytes([0, 0, 0x08, array.ndim]))
            handle.write(struct.pack(f">{array.ndim}I", *array.shape))
            handle.write(array.astype(np.uint8).tobytes())

    def test_read_idx_roundtrip(self, tmp_path):
        data = np.arange(2 * 4 * 4, dtype=np.uint8).reshape(2, 4, 4)
        path = tmp_path / "images-idx3-ubyte"
        self._write_idx_images(path, data)
        np.testing.assert_array_equal(read_idx(path), data)

    def test_read_idx_gzip(self, tmp_path):
        data = np.arange(10, dtype=np.uint8)
        path = tmp_path / "labels-idx1-ubyte.gz"
        raw = bytes([0, 0, 0x08, 1]) + struct.pack(">I", 10) + data.tobytes()
        with gzip.open(path, "wb") as handle:
            handle.write(raw)
        np.testing.assert_array_equal(read_idx(path), data)

    def test_read_idx_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad"
        path.write_bytes(b"\x01\x02\x03\x04")
        with pytest.raises(ValueError):
            read_idx(path)

    def test_load_mnist_missing_files(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_mnist(tmp_path)

    def test_load_mnist_from_directory(self, tmp_path):
        rng = np.random.default_rng(0)
        train_images = rng.integers(0, 256, size=(6, 28, 28)).astype(np.uint8)
        test_images = rng.integers(0, 256, size=(4, 28, 28)).astype(np.uint8)
        train_labels = rng.integers(0, 10, 6).astype(np.uint8)
        test_labels = rng.integers(0, 10, 4).astype(np.uint8)
        self._write_idx_images(tmp_path / "train-images-idx3-ubyte", train_images)
        self._write_idx_images(tmp_path / "t10k-images-idx3-ubyte", test_images)
        self._write_idx_images(tmp_path / "train-labels-idx1-ubyte", train_labels)
        self._write_idx_images(tmp_path / "t10k-labels-idx1-ubyte", test_labels)
        data = load_mnist(tmp_path)
        assert data.x_train.shape == (6, 28, 28)
        assert data.x_train.max() <= 1.0
        np.testing.assert_array_equal(data.y_test, test_labels)


class TestLoadDataset:
    def test_synthetic_fallback_sizes(self):
        data = load_dataset(train_size=30, test_size=12, prefer_mnist=False)
        assert data.x_train.shape[0] == 30
        assert data.x_test.shape[0] == 12

    def test_env_defaults(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRAIN_SIZE", "25")
        monkeypatch.setenv("REPRO_TEST_SIZE", "10")
        data = load_dataset(prefer_mnist=False)
        assert data.x_train.shape[0] == 25
        assert data.x_test.shape[0] == 10

    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            load_dataset(train_size=0, test_size=5, prefer_mnist=False)

    @pytest.mark.parametrize("name", ["REPRO_TRAIN_SIZE", "REPRO_TEST_SIZE"])
    @pytest.mark.parametrize("value", ["abc", "-4", "0", "", "2.5"])
    def test_env_sizes_must_be_positive_integers(self, monkeypatch, name, value):
        # A bad size variable fails with an error naming it, not with a bare
        # int() traceback or a size check that names neither variable.
        monkeypatch.setenv(name, value)
        with pytest.raises(ValueError, match=f"{name} must be a positive integer"):
            load_dataset(prefer_mnist=False)

    def test_prefers_mnist_when_available(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(0)
        images = rng.integers(0, 256, size=(20, 28, 28)).astype(np.uint8)
        labels = rng.integers(0, 10, 20).astype(np.uint8)

        def write(path, array):
            with open(path, "wb") as handle:
                handle.write(bytes([0, 0, 0x08, array.ndim]))
                handle.write(struct.pack(f">{array.ndim}I", *array.shape))
                handle.write(array.astype(np.uint8).tobytes())

        write(tmp_path / "train-images-idx3-ubyte", images)
        write(tmp_path / "t10k-images-idx3-ubyte", images)
        write(tmp_path / "train-labels-idx1-ubyte", labels)
        write(tmp_path / "t10k-labels-idx1-ubyte", labels)
        data = load_dataset(train_size=5, test_size=5, mnist_dir=tmp_path)
        assert data.x_train.shape == (5, 28, 28)

    def test_all_digits_present(self):
        data = load_dataset(train_size=100, test_size=50, prefer_mnist=False)
        assert set(np.unique(data.y_train)) == set(range(10))
