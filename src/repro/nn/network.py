"""The sequential network container and training loop.

:class:`Sequential` plays the role of the Keras ``Sequential`` model used by
the paper: it chains layers, runs mini-batch training with any loss /
optimizer pair, evaluates classification accuracy, and supports the
freeze-and-retrain workflow of Section V-B: ``fit`` back-propagates only
down to the first trainable layer with parameters, and the optimizer updates
only trainable layers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..utils.checks import check_count
from .layers import Layer
from .losses import Loss, SoftmaxCrossEntropy
from .optimizers import Adam, Optimizer

__all__ = ["TrainingHistory", "Sequential"]


def _check_samples(x: np.ndarray) -> None:
    """Reject an input without samples."""
    if x.shape[0] < 1:
        raise ValueError(f"x must hold at least one sample, got shape {x.shape}")


@dataclass
class TrainingHistory:
    """Per-epoch metrics collected by :meth:`Sequential.fit`."""

    loss: List[float] = field(default_factory=list)
    accuracy: List[float] = field(default_factory=list)
    val_loss: List[float] = field(default_factory=list)
    val_accuracy: List[float] = field(default_factory=list)

    def as_dict(self) -> Dict[str, List[float]]:
        """Return the history as a plain dictionary."""
        return {
            "loss": list(self.loss),
            "accuracy": list(self.accuracy),
            "val_loss": list(self.val_loss),
            "val_accuracy": list(self.val_accuracy),
        }


class Sequential:
    """A simple feed-forward stack of layers."""

    def __init__(self, layers: Optional[Sequence[Layer]] = None, name: str = "model") -> None:
        self.layers: List[Layer] = list(layers) if layers else []
        self.name = name

    def add(self, layer: Layer) -> "Sequential":
        """Append a layer (returns self for chaining)."""
        self.layers.append(layer)
        return self

    # ------------------------------------------------------------------ #
    # forward
    # ------------------------------------------------------------------ #
    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        """Run the network forward and return the final layer output (logits)."""
        out = x
        for layer in self.layers:
            out = layer.forward(out, training=training)
        return out

    # ------------------------------------------------------------------ #
    # parameters
    # ------------------------------------------------------------------ #
    def trainable_parameters(self):
        """Yield ``(params, grads)`` lists of every trainable layer."""
        params: List[np.ndarray] = []
        grads: List[np.ndarray] = []
        for layer in self.layers:
            if layer.trainable and layer.params:
                params.extend(layer.params)
                grads.extend(layer.grads)
        return params, grads

    # ------------------------------------------------------------------ #
    # training / evaluation
    # ------------------------------------------------------------------ #
    def fit(
        self,
        x: np.ndarray,
        y: np.ndarray,
        epochs: int = 1,
        batch_size: int = 64,
        loss: Optional[Loss] = None,
        optimizer: Optional[Optimizer] = None,
        validation_data: Optional[tuple] = None,
        shuffle: bool = True,
        rng: Optional[np.random.Generator] = None,
        verbose: bool = False,
    ) -> TrainingHistory:
        """Mini-batch gradient descent training.

        Parameters mirror the Keras ``fit`` API; ``y`` may be integer class
        labels (for classification losses) or dense targets.  Each batch is
        back-propagated only down to the first trainable layer with
        parameters, which computes its parameter gradients but no input
        gradient: the layers below it (a frozen first layer, its pooling)
        have nothing to learn.
        """
        check_count("batch_size", batch_size, 1)
        check_count("epochs", epochs, 0)
        _check_samples(x)
        loss = loss if loss is not None else SoftmaxCrossEntropy()
        optimizer = optimizer if optimizer is not None else Adam()
        rng = rng if rng is not None else np.random.default_rng(0)
        history = TrainingHistory()
        n = x.shape[0]
        if n != y.shape[0]:
            raise ValueError(f"x has {n} samples but y has {y.shape[0]}")
        first = next(
            (i for i, layer in enumerate(self.layers) if layer.trainable and layer.params),
            None,
        )

        for epoch in range(epochs):
            indices = rng.permutation(n) if shuffle else np.arange(n)
            epoch_loss = 0.0
            correct = 0
            seen = 0
            for start in range(0, n, batch_size):
                batch_idx = indices[start : start + batch_size]
                xb, yb = x[batch_idx], y[batch_idx]
                logits = self.forward(xb, training=True)
                batch_loss, grad = loss.forward(logits, yb)
                if first is not None:
                    for layer in reversed(self.layers[first + 1 :]):
                        grad = layer.backward(grad)
                    self.layers[first].backward(grad, input_grad=False)
                params, grads = self.trainable_parameters()
                optimizer.step(params, grads)

                epoch_loss += batch_loss * len(batch_idx)
                seen += len(batch_idx)
                if yb.ndim == 1:
                    correct += int(np.sum(np.argmax(logits, axis=1) == yb))

            history.loss.append(epoch_loss / seen)
            history.accuracy.append(correct / seen if seen else 0.0)

            if validation_data is not None:
                val_loss, val_acc = self.evaluate(
                    validation_data[0], validation_data[1], loss=loss
                )
                history.val_loss.append(val_loss)
                history.val_accuracy.append(val_acc)

            if verbose:
                message = (
                    f"[{self.name}] epoch {epoch + 1}/{epochs} "
                    f"loss={history.loss[-1]:.4f} acc={history.accuracy[-1]:.4f}"
                )
                if validation_data is not None:
                    message += (
                        f" val_loss={history.val_loss[-1]:.4f} "
                        f"val_acc={history.val_accuracy[-1]:.4f}"
                    )
                print(message)
        return history

    def evaluate(
        self,
        x: np.ndarray,
        y: np.ndarray,
        loss: Optional[Loss] = None,
        batch_size: int = 256,
    ) -> tuple:
        """Return ``(loss, accuracy)`` over a labelled dataset."""
        check_count("batch_size", batch_size, 1)
        _check_samples(x)
        loss = loss if loss is not None else SoftmaxCrossEntropy()
        total_loss = 0.0
        correct = 0
        n = x.shape[0]
        for start in range(0, n, batch_size):
            xb = x[start : start + batch_size]
            yb = y[start : start + batch_size]
            logits = self.forward(xb, training=False)
            batch_loss, _ = loss.forward(logits, yb)
            total_loss += batch_loss * xb.shape[0]
            if yb.ndim == 1:
                correct += int(np.sum(np.argmax(logits, axis=1) == yb))
        return total_loss / n, correct / n

    def misclassification_rate(self, x: np.ndarray, y: np.ndarray) -> float:
        """The paper's headline accuracy metric: 1 - classification accuracy."""
        _, accuracy = self.evaluate(x, y)
        return 1.0 - accuracy

    def __repr__(self) -> str:
        return f"Sequential(name={self.name!r}, layers={len(self.layers)})"
