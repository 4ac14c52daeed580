"""Weight initializers for the numpy neural-network substrate."""

from __future__ import annotations

from typing import Tuple

import numpy as np

__all__ = ["glorot_uniform", "zeros"]


def glorot_uniform(
    shape: Tuple[int, ...], fan_in: int, fan_out: int, rng: np.random.Generator
) -> np.ndarray:
    """Glorot/Xavier uniform initialization (the Keras default for dense/conv)."""
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


def zeros(shape: Tuple[int, ...]) -> np.ndarray:
    """All-zero initialization (biases)."""
    return np.zeros(shape, dtype=np.float64)
