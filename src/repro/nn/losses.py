"""The loss function.

The paper trains with the standard cross-entropy classification loss
(Section II-B).
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from .activations import softmax

__all__ = ["Loss", "SoftmaxCrossEntropy", "one_hot"]


def one_hot(labels: np.ndarray, num_classes: int) -> np.ndarray:
    """Convert integer labels to one-hot rows."""
    labels = np.asarray(labels, dtype=np.int64)
    if labels.ndim != 1:
        raise ValueError(f"labels must be one-dimensional, got shape {labels.shape}")
    if labels.min() < 0 or labels.max() >= num_classes:
        raise ValueError(
            f"labels must lie in [0, {num_classes - 1}], got range "
            f"[{labels.min()}, {labels.max()}]"
        )
    out = np.zeros((labels.shape[0], num_classes), dtype=np.float64)
    out[np.arange(labels.shape[0]), labels] = 1.0
    return out


class Loss:
    """Base class: compute the scalar loss and the gradient w.r.t. predictions."""

    def forward(self, predictions: np.ndarray, targets: np.ndarray) -> Tuple[float, np.ndarray]:
        raise NotImplementedError


class SoftmaxCrossEntropy(Loss):
    """Softmax + cross-entropy, fused for numerical stability.

    The network's last layer should output raw logits; this loss applies the
    softmax internally, so the combined gradient is simply
    ``probabilities - one_hot_targets``.
    """

    def forward(self, logits: np.ndarray, targets: np.ndarray) -> Tuple[float, np.ndarray]:
        if logits.ndim != 2:
            raise ValueError(f"expected (batch, classes) logits, got {logits.shape}")
        if targets.ndim == 1:
            targets = one_hot(targets, logits.shape[1])
        if targets.shape != logits.shape:
            raise ValueError(
                f"targets shape {targets.shape} does not match logits {logits.shape}"
            )
        probs = softmax(logits, axis=1)
        batch = logits.shape[0]
        eps = 1e-12
        loss = -np.sum(targets * np.log(probs + eps)) / batch
        grad = (probs - targets) / batch
        return float(loss), grad
