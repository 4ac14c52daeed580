"""Activation functions and their derivatives.

Alongside the standard ReLU / softmax pair used by the Keras LeNet-5 variant,
this module provides the **sign activation** the paper substitutes into the
first layer (Section V-B): it outputs -1, 0 or +1 and is trivially cheap in
hardware (a comparator).  Because its true derivative is zero almost
everywhere, training through it uses the straight-through estimator, which is
also what makes *retraining the remaining layers* (rather than the first
layer itself) the natural recovery mechanism in the paper.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "Activation",
    "ReLU",
    "Sign",
    "Identity",
    "softmax",
    "get_activation",
]


def softmax(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax."""
    shifted = logits - np.max(logits, axis=axis, keepdims=True)
    exp = np.exp(shifted)
    return exp / np.sum(exp, axis=axis, keepdims=True)


class Activation:
    """Base class: elementwise function with a derivative for backprop."""

    name = "activation"

    def forward(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def backward(self, x: np.ndarray, grad_output: np.ndarray) -> np.ndarray:
        """Gradient of the loss w.r.t. ``x`` given the gradient w.r.t. the output."""
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class ReLU(Activation):
    """Rectified linear unit."""

    name = "relu"

    def forward(self, x: np.ndarray) -> np.ndarray:
        return np.maximum(x, 0.0)

    def backward(self, x: np.ndarray, grad_output: np.ndarray) -> np.ndarray:
        return grad_output * (x > 0.0)


class Sign(Activation):
    """The sign activation used by the stochastic first layer.

    ``threshold`` implements soft thresholding: inputs with magnitude below it
    map to 0 (the near-zero error-mitigation trick of Section V-B).  The
    backward pass uses the straight-through estimator clipped to the linear
    region, so the activation can sit inside a trainable network without
    killing all gradients.
    """

    name = "sign"

    def __init__(self, threshold: float = 0.0, clip: float = 1.0) -> None:
        if threshold < 0:
            raise ValueError("threshold must be non-negative")
        self.threshold = float(threshold)
        self.clip = float(clip)

    def forward(self, x: np.ndarray) -> np.ndarray:
        out = np.sign(x)
        if self.threshold > 0.0:
            out = np.where(np.abs(x) < self.threshold, 0.0, out)
        return out

    def backward(self, x: np.ndarray, grad_output: np.ndarray) -> np.ndarray:
        # Straight-through estimator: pass the gradient where |x| <= clip.
        return grad_output * (np.abs(x) <= self.clip)

    def __repr__(self) -> str:
        return f"Sign(threshold={self.threshold})"


class Identity(Activation):
    """No-op activation (linear layer output)."""

    name = "linear"

    def forward(self, x: np.ndarray) -> np.ndarray:
        return x

    def backward(self, x: np.ndarray, grad_output: np.ndarray) -> np.ndarray:
        return grad_output


_BY_NAME = {
    "relu": ReLU,
    "sign": Sign,
    "linear": Identity,
    "identity": Identity,
}


def get_activation(spec) -> Activation:
    """Resolve an activation from a name, an instance, or ``None`` (identity)."""
    if spec is None:
        return Identity()
    if isinstance(spec, Activation):
        return spec
    if isinstance(spec, str):
        try:
            return _BY_NAME[spec.lower()]()
        except KeyError:
            raise ValueError(
                f"unknown activation {spec!r}; expected one of {sorted(_BY_NAME)}"
            ) from None
    raise TypeError(f"cannot interpret {spec!r} as an activation")
