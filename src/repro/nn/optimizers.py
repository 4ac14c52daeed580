"""The gradient-descent optimizer (Adam, as the paper's Keras training uses)."""

from __future__ import annotations

from typing import Dict, List

import numpy as np

__all__ = ["Optimizer", "Adam"]


class Optimizer:
    """Base class: updates ``params`` in place from matching ``grads`` lists."""

    def step(self, params: List[np.ndarray], grads: List[np.ndarray]) -> None:
        raise NotImplementedError

    def reset(self) -> None:
        """Clear any accumulated state (momentum, moments)."""


class Adam(Optimizer):
    """Adam optimizer (Kingma & Ba)."""

    def __init__(
        self,
        learning_rate: float = 0.001,
        beta1: float = 0.9,
        beta2: float = 0.999,
        epsilon: float = 1e-8,
    ) -> None:
        if learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if not 0.0 <= beta1 < 1.0 or not 0.0 <= beta2 < 1.0:
            raise ValueError("betas must lie in [0, 1)")
        self.learning_rate = float(learning_rate)
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.epsilon = float(epsilon)
        self._m: Dict[int, np.ndarray] = {}
        self._v: Dict[int, np.ndarray] = {}
        self._t = 0

    def step(self, params: List[np.ndarray], grads: List[np.ndarray]) -> None:
        self._t += 1
        for param, grad in zip(params, grads):
            key = id(param)
            m = self._m.get(key)
            v = self._v.get(key)
            if m is None:
                m = np.zeros_like(param)
                v = np.zeros_like(param)
            m = self.beta1 * m + (1.0 - self.beta1) * grad
            v = self.beta2 * v + (1.0 - self.beta2) * grad**2
            self._m[key] = m
            self._v[key] = v
            m_hat = m / (1.0 - self.beta1**self._t)
            v_hat = v / (1.0 - self.beta2**self._t)
            param -= self.learning_rate * m_hat / (np.sqrt(v_hat) + self.epsilon)

    def reset(self) -> None:
        self._m.clear()
        self._v.clear()
        self._t = 0
