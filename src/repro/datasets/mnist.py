"""MNIST IDX loader and the dataset dispatcher.

If the user has the original MNIST IDX files (``train-images-idx3-ubyte`` and
friends, optionally gzipped) they can be dropped into a directory and loaded
with :func:`load_mnist`, in which case every experiment runs on the real
benchmark.  In the offline default configuration :func:`load_dataset` falls
back to the synthetic digit generator (see
:mod:`repro.datasets.synthetic` for the substitution rationale).
"""

from __future__ import annotations

import gzip
import os
import struct
from pathlib import Path
from typing import Optional

import numpy as np

from ..utils.env import env_positive_int
from .synthetic import SyntheticDigits

__all__ = ["read_idx", "load_mnist", "load_dataset", "DEFAULT_MNIST_DIR"]


#: Directory searched for MNIST IDX files (override with the REPRO_MNIST_DIR
#: environment variable).
DEFAULT_MNIST_DIR = Path("data/mnist")

_FILES = {
    "train_images": "train-images-idx3-ubyte",
    "train_labels": "train-labels-idx1-ubyte",
    "test_images": "t10k-images-idx3-ubyte",
    "test_labels": "t10k-labels-idx1-ubyte",
}


def read_idx(path: Path) -> np.ndarray:
    """Read one IDX-format file (plain or ``.gz``)."""
    path = Path(path)
    opener = gzip.open if path.suffix == ".gz" else open
    with opener(path, "rb") as handle:
        magic = handle.read(4)
        if len(magic) != 4 or magic[0] != 0 or magic[1] != 0:
            raise ValueError(f"{path} is not an IDX file")
        dtype_code, ndim = magic[2], magic[3]
        if dtype_code != 0x08:
            raise ValueError(f"unsupported IDX data type 0x{dtype_code:02x}")
        shape = struct.unpack(f">{ndim}I", handle.read(4 * ndim))
        data = np.frombuffer(handle.read(), dtype=np.uint8)
    return data.reshape(shape)


def _find_file(directory: Path, stem: str) -> Optional[Path]:
    for candidate in (directory / stem, directory / f"{stem}.gz"):
        if candidate.exists():
            return candidate
    return None


def load_mnist(directory: Optional[Path] = None) -> SyntheticDigits:
    """Load the real MNIST dataset from IDX files.

    Raises ``FileNotFoundError`` if any of the four files is missing.  The
    return type reuses :class:`SyntheticDigits` as a plain train/test
    container (images normalized to ``[0, 1]``).
    """
    directory = Path(
        directory
        if directory is not None
        else os.environ.get("REPRO_MNIST_DIR", DEFAULT_MNIST_DIR)
    )
    paths = {}
    for key, stem in _FILES.items():
        found = _find_file(directory, stem)
        if found is None:
            raise FileNotFoundError(
                f"MNIST file {stem}(.gz) not found in {directory}"
            )
        paths[key] = found
    x_train = read_idx(paths["train_images"]).astype(np.float64) / 255.0
    y_train = read_idx(paths["train_labels"]).astype(np.int64)
    x_test = read_idx(paths["test_images"]).astype(np.float64) / 255.0
    y_test = read_idx(paths["test_labels"]).astype(np.int64)
    return SyntheticDigits(x_train, y_train, x_test, y_test)


def load_dataset(
    train_size: Optional[int] = None,
    test_size: Optional[int] = None,
    seed: int = 0,
    prefer_mnist: bool = True,
    mnist_dir: Optional[Path] = None,
) -> SyntheticDigits:
    """Load the evaluation dataset: real MNIST if available, synthetic otherwise.

    ``train_size`` / ``test_size`` subsample (or, for the synthetic fallback,
    generate) the requested number of examples; defaults come from the
    ``REPRO_TRAIN_SIZE`` / ``REPRO_TEST_SIZE`` environment variables or
    8000 / 2000.
    """
    if train_size is None:
        train_size = env_positive_int("REPRO_TRAIN_SIZE", 8000)
    if test_size is None:
        test_size = env_positive_int("REPRO_TEST_SIZE", 2000)
    if train_size < 1 or test_size < 1:
        raise ValueError("train_size and test_size must be positive")

    if prefer_mnist:
        try:
            full = load_mnist(mnist_dir)
        except (FileNotFoundError, ValueError):
            full = None
        if full is not None:
            rng = np.random.default_rng(seed)
            train_idx = rng.permutation(full.x_train.shape[0])[:train_size]
            test_idx = rng.permutation(full.x_test.shape[0])[:test_size]
            return SyntheticDigits(
                full.x_train[train_idx],
                full.y_train[train_idx],
                full.x_test[test_idx],
                full.y_test[test_idx],
            )

    return SyntheticDigits.generate(
        train_size=train_size, test_size=test_size, seed=seed
    )
