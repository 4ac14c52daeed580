"""Procedural MNIST-like digit dataset.

The paper evaluates on MNIST (70,000 handwritten 28x28 8-bit grayscale
digits).  The reproduction environment has no network access, so this module
generates a *synthetic* digit dataset with the same tensor format and the
same 10-class structure: digits are rendered from seven-segment-style stroke
skeletons with randomized geometry (translation, rotation, scale, shear,
stroke width), smoothed, and corrupted with sensor-like noise.

This docstring is the record of that substitution: every experiment in the
paper measures *relative* behaviour between first-layer implementations (binary,
old SC, proposed SC) and the effect of retraining, so any separable 28x28
grayscale 10-class problem exercises the identical code paths.  Absolute
misclassification rates differ from the paper's MNIST numbers; orderings and
trends are what the benchmarks check.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

__all__ = ["SEGMENTS", "DIGIT_SEGMENTS", "render_digit", "generate_digits", "SyntheticDigits"]


#: Canonical endpoints of the seven display segments in a unit box
#: (x grows right, y grows down).  Format: (x0, y0, x1, y1).
SEGMENTS: Dict[str, Tuple[float, float, float, float]] = {
    "A": (0.25, 0.15, 0.75, 0.15),  # top
    "B": (0.75, 0.15, 0.75, 0.50),  # top right
    "C": (0.75, 0.50, 0.75, 0.85),  # bottom right
    "D": (0.25, 0.85, 0.75, 0.85),  # bottom
    "E": (0.25, 0.50, 0.25, 0.85),  # bottom left
    "F": (0.25, 0.15, 0.25, 0.50),  # top left
    "G": (0.25, 0.50, 0.75, 0.50),  # middle
}

#: Which segments are lit for each digit (classic seven-segment encoding).
DIGIT_SEGMENTS: Dict[int, str] = {
    0: "ABCDEF",
    1: "BC",
    2: "ABGED",
    3: "ABGCD",
    4: "FGBC",
    5: "AFGCD",
    6: "AFGECD",
    7: "ABC",
    8: "ABCDEFG",
    9: "ABCDFG",
}


def _segment_distance(
    px: np.ndarray, py: np.ndarray, seg: Tuple[float, float, float, float]
) -> np.ndarray:
    """Distance from every pixel centre to a line segment."""
    x0, y0, x1, y1 = seg
    dx, dy = x1 - x0, y1 - y0
    length_sq = dx * dx + dy * dy
    if length_sq == 0:
        return np.hypot(px - x0, py - y0)
    t = np.clip(((px - x0) * dx + (py - y0) * dy) / length_sq, 0.0, 1.0)
    nearest_x = x0 + t * dx
    nearest_y = y0 + t * dy
    return np.hypot(px - nearest_x, py - nearest_y)


def render_digit(
    digit: int,
    rng: np.random.Generator,
    size: int = 28,
    stroke_width: float | None = None,
    jitter: float = 0.02,
    noise: float = 0.05,
) -> np.ndarray:
    """Render one randomized digit image with pixel values in ``[0, 1]``.

    Parameters
    ----------
    digit:
        Class label 0-9.
    rng:
        Random generator controlling all geometric and noise randomness.
    size:
        Image side length (28 matches MNIST).
    stroke_width:
        Stroke half-width in unit-box coordinates; randomized when ``None``.
    jitter:
        Standard deviation of per-endpoint positional jitter.
    noise:
        Standard deviation of additive pixel noise.
    """
    if digit not in DIGIT_SEGMENTS:
        raise ValueError(f"digit must be 0-9, got {digit}")

    if stroke_width is None:
        stroke_width = rng.uniform(0.045, 0.085)

    # Random affine placement of the unit box.
    angle = rng.uniform(-0.25, 0.25)  # radians, ~±14 degrees
    scale = rng.uniform(0.75, 1.05)
    shear = rng.uniform(-0.15, 0.15)
    shift_x = rng.uniform(-0.08, 0.08)
    shift_y = rng.uniform(-0.08, 0.08)
    cos_a, sin_a = np.cos(angle), np.sin(angle)

    # Pixel grid in unit coordinates, pulled back through the inverse affine
    # transform so we can evaluate segment distances in canonical space.
    coords = (np.arange(size) + 0.5) / size
    px, py = np.meshgrid(coords, coords)
    cx = px - 0.5 - shift_x
    cy = py - 0.5 - shift_y
    inv_x = (cos_a * cx + sin_a * cy) / scale
    inv_y = (-sin_a * cx + cos_a * cy) / scale
    inv_x = inv_x - shear * inv_y
    ux = inv_x + 0.5
    uy = inv_y + 0.5

    image = np.zeros((size, size), dtype=np.float64)
    for name in DIGIT_SEGMENTS[digit]:
        x0, y0, x1, y1 = SEGMENTS[name]
        seg = (
            x0 + rng.normal(0, jitter),
            y0 + rng.normal(0, jitter),
            x1 + rng.normal(0, jitter),
            y1 + rng.normal(0, jitter),
        )
        distance = _segment_distance(ux, uy, seg)
        # Soft-edged stroke: intensity falls off linearly over half a stroke width.
        contribution = np.clip(1.5 - distance / stroke_width, 0.0, 1.0)
        image = np.maximum(image, contribution)

    if noise > 0:
        image = image + rng.normal(0.0, noise, size=image.shape)
    return np.clip(image, 0.0, 1.0)


def generate_digits(
    count: int,
    rng: np.random.Generator | int | None = None,
    size: int = 28,
    noise: float = 0.05,
) -> Tuple[np.ndarray, np.ndarray]:
    """Generate ``count`` labelled digit images.

    Returns ``(images, labels)`` with ``images`` of shape ``(count, size, size)``
    in ``[0, 1]`` and integer ``labels`` in ``0..9``.  Classes are balanced
    (round-robin) and then shuffled.
    """
    if count < 1:
        raise ValueError("count must be positive")
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    labels = np.arange(count, dtype=np.int64) % 10
    rng.shuffle(labels)
    images = np.empty((count, size, size), dtype=np.float64)
    for i, digit in enumerate(labels):
        images[i] = render_digit(int(digit), rng, size=size, noise=noise)
    return images, labels


@dataclass
class SyntheticDigits:
    """A train/test split of the synthetic digit dataset."""

    x_train: np.ndarray
    y_train: np.ndarray
    x_test: np.ndarray
    y_test: np.ndarray

    @classmethod
    def generate(
        cls,
        train_size: int = 8000,
        test_size: int = 2000,
        seed: int = 0,
        size: int = 28,
        noise: float = 0.05,
    ) -> "SyntheticDigits":
        """Generate a reproducible train/test split."""
        rng = np.random.default_rng(seed)
        x_train, y_train = generate_digits(train_size, rng, size=size, noise=noise)
        x_test, y_test = generate_digits(test_size, rng, size=size, noise=noise)
        return cls(x_train, y_train, x_test, y_test)

    def as_quantized_pixels(self, bits: int = 8) -> "SyntheticDigits":
        """Quantize pixel values to ``bits``-bit levels (sensor ADC emulation)."""
        levels = (1 << bits) - 1
        return SyntheticDigits(
            np.round(self.x_train * levels) / levels,
            self.y_train,
            np.round(self.x_test * levels) / levels,
            self.y_test,
        )
