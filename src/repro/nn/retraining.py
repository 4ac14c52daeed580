"""The freeze-and-retrain workflow of Section V-B.

The paper's key enabler for low-precision stochastic first layers is that the
*binary* remainder of the network can be retrained to absorb the noise the
first layer introduces:

1. train the baseline network normally (ReLU first layer, full precision);
2. replace the first layer with its conditioned version -- per-kernel weight
   scaling, ``b``-bit quantization, sign activation, zero bias -- and freeze
   it;
3. retrain the remaining layers for a few epochs.

Step 2/3 are implemented here.  The frozen layer is the exact binary-domain
model of what the stochastic engine computes (up to SC noise, which the
hybrid pipeline adds at inference time), so a single retraining pass serves
both the "Binary" and the two stochastic rows of Table 3.  Retraining runs
the frozen layer forward only: :meth:`~repro.nn.network.Sequential.fit`
back-propagates down to the first trainable layer and stops there.
"""

from __future__ import annotations

import copy
from typing import Optional

import numpy as np

from .activations import Sign
from .layers import Conv2D, FrozenConv2D, StochasticResolutionConv2D
from .network import Sequential, TrainingHistory
from .optimizers import Adam, Optimizer
from .quantization import prepare_first_layer_weights

__all__ = ["freeze_first_layer", "quantize_and_freeze", "retrain"]


def _first_conv_index(model: Sequential) -> int:
    for index, layer in enumerate(model.layers):
        if isinstance(layer, Conv2D):
            return index
    raise ValueError("model has no Conv2D layer to replace")


def freeze_first_layer(
    model: Sequential,
    weights: np.ndarray,
    activation=None,
    name_suffix: str = "frozen",
) -> Sequential:
    """Return a copy of ``model`` whose first conv layer is frozen with ``weights``.

    The remaining layers are deep-copied so retraining the new model leaves
    the original untouched.  The frozen layer's bias is zero, matching the
    bias-free stochastic dot-product engine.
    """
    index = _first_conv_index(model)
    original: Conv2D = model.layers[index]
    frozen = FrozenConv2D.from_conv(
        original,
        weights=np.asarray(weights, dtype=np.float64),
        bias=np.zeros(original.filters),
        activation=activation if activation is not None else original.activation,
    )
    new_layers = []
    for i, layer in enumerate(model.layers):
        if i == index:
            new_layers.append(frozen)
        else:
            new_layers.append(copy.deepcopy(layer))
    return Sequential(new_layers, name=f"{model.name}-{name_suffix}")


def quantize_and_freeze(
    model: Sequential,
    precision: int,
    scale: bool = True,
    sign_threshold: float = 0.0,
    sc_resolution: bool = False,
    soft_threshold: float = 0.0,
) -> Sequential:
    """Freeze the first conv layer in its conditioned (scaled, quantized, sign) form.

    With ``sc_resolution=False`` (default) the frozen layer is the *binary*
    design's first layer: quantized weights, full-resolution accumulation and
    a sign activation.  With ``sc_resolution=True`` the frozen layer instead
    emulates the ideal stochastic engine -- input quantization, counter-LSB
    resolution and soft thresholding -- so that retraining the remaining
    layers compensates for the precision losses the stochastic bit-streams
    introduce (the paper's Section V-B workflow for the hybrid design).  The
    same conditioned weights are later loaded into
    :class:`~repro.sc.convolution.StochasticConv2D` for bit-level evaluation.
    """
    index = _first_conv_index(model)
    original: Conv2D = model.layers[index]
    conditioned = prepare_first_layer_weights(
        original.weights.copy(), precision=precision, scale=scale
    )
    if sc_resolution:
        frozen = StochasticResolutionConv2D.from_conv(
            original,
            weights=conditioned,
            precision=precision,
            soft_threshold=soft_threshold,
        )
        new_layers = []
        for i, layer in enumerate(model.layers):
            new_layers.append(frozen if i == index else copy.deepcopy(layer))
        return Sequential(new_layers, name=f"{model.name}-scq{precision}")
    return freeze_first_layer(
        model,
        conditioned,
        activation=Sign(threshold=sign_threshold),
        name_suffix=f"q{precision}",
    )


def retrain(
    model: Sequential,
    x_train: np.ndarray,
    y_train: np.ndarray,
    epochs: int = 2,
    batch_size: int = 64,
    optimizer: Optional[Optimizer] = None,
    validation_data=None,
    rng: Optional[np.random.Generator] = None,
    verbose: bool = False,
) -> TrainingHistory:
    """Retrain the trainable (non-frozen) layers of ``model``.

    A thin wrapper over :meth:`Sequential.fit`, which back-propagates only
    down to the first trainable layer: the frozen first layer and the
    pooling after it run forward only, and the optimizer updates only
    trainable layers.
    """
    optimizer = optimizer if optimizer is not None else Adam(learning_rate=1e-3)
    return model.fit(
        x_train,
        y_train,
        epochs=epochs,
        batch_size=batch_size,
        optimizer=optimizer,
        validation_data=validation_data,
        rng=rng,
        verbose=verbose,
    )
