"""A from-scratch numpy neural-network library (the TensorFlow/Keras substitute)."""

from .activations import Activation, Identity, ReLU, Sign, get_activation, softmax
from .conv_ops import col2im, conv_output_hw, im2col
from .initializers import glorot_uniform, zeros
from .layers import (
    Conv2D,
    Dense,
    Dropout,
    Flatten,
    FrozenConv2D,
    Layer,
    MaxPool2D,
    StochasticResolutionConv2D,
)
from .lenet import FIRST_LAYER_FILTERS, FIRST_LAYER_KERNEL, build_lenet5_small
from .losses import Loss, SoftmaxCrossEntropy, one_hot
from .network import Sequential, TrainingHistory
from .optimizers import Adam, Optimizer
from .quantization import (
    prepare_first_layer_weights,
    quantize_weights,
    scale_kernels,
    soft_threshold,
)
from .retraining import freeze_first_layer, quantize_and_freeze, retrain

__all__ = [
    "Activation",
    "ReLU",
    "Sign",
    "Identity",
    "softmax",
    "get_activation",
    "im2col",
    "col2im",
    "conv_output_hw",
    "glorot_uniform",
    "zeros",
    "Layer",
    "Dense",
    "Conv2D",
    "FrozenConv2D",
    "StochasticResolutionConv2D",
    "MaxPool2D",
    "Flatten",
    "Dropout",
    "Loss",
    "SoftmaxCrossEntropy",
    "one_hot",
    "Optimizer",
    "Adam",
    "Sequential",
    "TrainingHistory",
    "build_lenet5_small",
    "FIRST_LAYER_FILTERS",
    "FIRST_LAYER_KERNEL",
    "scale_kernels",
    "quantize_weights",
    "prepare_first_layer_weights",
    "soft_threshold",
    "freeze_first_layer",
    "quantize_and_freeze",
    "retrain",
]
