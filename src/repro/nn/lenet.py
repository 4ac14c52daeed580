"""The LeNet-5 topology builder.

The paper evaluates on "a variant [of LeNet-5] provided by the Keras library"
whose first layer has 32 convolution kernels applied to the full 28x28 image
(Fig. 3 shows 784 parallel dot-product engines, i.e. "same" padding).
:func:`build_lenet5_small` keeps that *first layer geometry* (32 kernels,
5x5, same padding) with a lighter binary remainder.  Because the paper's
experiments only ever modify the first layer, it exercises the identical
hybrid code path at a fraction of the CPU-only training cost; the Table 3
accuracy experiment and its benchmarks use it (see ``benchmarks/conftest.py``
for their scaled-down configuration).

``first_activation`` lets the ReLU of the baseline model be swapped for the
sign activation used by the quantized / stochastic first layer.
"""

from __future__ import annotations

import numpy as np

from .layers import Conv2D, Dense, Dropout, Flatten, MaxPool2D
from .network import Sequential

__all__ = ["FIRST_LAYER_FILTERS", "FIRST_LAYER_KERNEL", "build_lenet5_small"]


#: Number of first-layer kernels in the paper's Fig. 3 topology.
FIRST_LAYER_FILTERS = 32

#: First-layer kernel size (5x5 with "same" padding -> 784 output positions).
FIRST_LAYER_KERNEL = 5


def build_lenet5_small(
    first_activation: str = "relu",
    dropout_rate: float = 0.25,
    hidden_units: int = 64,
    filters1: int = FIRST_LAYER_FILTERS,
    filters2: int = 16,
    seed: int = 0,
    image_size: int = 28,
) -> Sequential:
    """The reduced variant: identical first layer, lighter binary remainder.

    A small 3x3 second convolution is kept so that -- as in the full LeNet-5
    -- the binary portion of the network can re-extract features from the
    sign-activated first-layer maps during retraining; dropping it makes the
    retraining recovery of Section V-B markedly weaker.
    """
    rng = np.random.default_rng(seed)
    if image_size % 4 != 0:
        raise ValueError("image_size must be divisible by 4 (two 2x2 pooling stages)")
    model = Sequential(name="lenet5-small")
    model.add(
        Conv2D(1, filters1, FIRST_LAYER_KERNEL, padding=FIRST_LAYER_KERNEL // 2,
               activation=first_activation, rng=rng)
    )
    model.add(MaxPool2D(2))
    model.add(Conv2D(filters1, filters2, 3, padding=1, activation="relu", rng=rng))
    model.add(MaxPool2D(2))
    model.add(Flatten())
    pooled = image_size // 4
    model.add(Dense(filters2 * pooled * pooled, hidden_units, activation="relu", rng=rng))
    model.add(Dropout(dropout_rate, rng=rng))
    model.add(Dense(hidden_units, 10, activation=None, rng=rng))
    return model
