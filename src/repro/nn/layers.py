"""Trainable layers of the numpy neural-network substrate.

The layer zoo covers exactly what the paper's LeNet-5 variant needs --
convolution, max-pooling, dense, flatten and dropout, with activations
built into the layers -- plus a :class:`FrozenConv2D` used to model the
quantized / stochastic first layer whose weights must *not* move during
retraining (Section V-B).

Data layout is ``(batch, channels, height, width)`` for images and
``(batch, features)`` for dense layers.  Every layer implements

* ``forward(x, training)`` -- compute outputs, caching what backward needs;
* ``backward(grad_output)`` -- return the gradient w.r.t. the input of the
  last ``forward`` and store parameter gradients in ``grads``.  Layers with
  parameters (:class:`Dense`, :class:`Conv2D` and its frozen subclasses) also
  take ``input_grad``: with ``input_grad=False`` they store the parameter
  gradients and return ``None``.  :meth:`~repro.nn.network.Sequential.fit`
  back-propagates only down to the first trainable layer with parameters and
  calls it that way, since nothing below it uses an input gradient;
* ``params`` / ``grads`` -- parallel lists consumed by the optimizers.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from ..utils.checks import check_count
from .activations import Activation, get_activation
from .conv_ops import col2im, conv_output_hw, im2col
from .initializers import glorot_uniform, zeros

__all__ = [
    "Layer",
    "Dense",
    "Conv2D",
    "FrozenConv2D",
    "StochasticResolutionConv2D",
    "MaxPool2D",
    "Flatten",
    "Dropout",
]


class Layer:
    """Base class for all layers."""

    #: Whether the optimizer should update this layer's parameters.
    trainable = True

    def __init__(self) -> None:
        self.params: List[np.ndarray] = []
        self.grads: List[np.ndarray] = []

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class Dense(Layer):
    """Fully connected layer ``y = activation(x @ W + b)``."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        activation=None,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng(0)
        self.in_features = check_count("in_features", in_features)
        self.out_features = check_count("out_features", out_features)
        self.activation: Activation = get_activation(activation)
        self.weights = glorot_uniform(
            (in_features, out_features), in_features, out_features, rng
        )
        self.bias = zeros((out_features,))
        self.params = [self.weights, self.bias]
        self.grads = [np.zeros_like(self.weights), np.zeros_like(self.bias)]
        self._x: Optional[np.ndarray] = None
        self._pre_activation: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        if x.ndim != 2 or x.shape[1] != self.in_features:
            raise ValueError(
                f"Dense expects (batch, {self.in_features}) input, got {x.shape}"
            )
        self._x = x
        self._pre_activation = x @ self.weights + self.bias
        return self.activation.forward(self._pre_activation)

    def backward(self, grad_output: np.ndarray, input_grad: bool = True) -> Optional[np.ndarray]:
        grad_pre = self.activation.backward(self._pre_activation, grad_output)
        self.grads[0][...] = self._x.T @ grad_pre
        self.grads[1][...] = grad_pre.sum(axis=0)
        return grad_pre @ self.weights.T if input_grad else None

    def __repr__(self) -> str:
        return (
            f"Dense({self.in_features} -> {self.out_features}, "
            f"activation={self.activation.name})"
        )


class Conv2D(Layer):
    """2-D convolution over ``(batch, channels, H, W)`` inputs."""

    def __init__(
        self,
        in_channels: int,
        filters: int,
        kernel_size: int | Tuple[int, int],
        stride: int = 1,
        padding: int = 0,
        activation=None,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng(0)
        if isinstance(kernel_size, int):
            kernel_size = (kernel_size, kernel_size)
        self.in_channels = int(in_channels)
        self.filters = int(filters)
        self.kernel_size = (int(kernel_size[0]), int(kernel_size[1]))
        self.stride = int(check_count("stride", stride))
        self.padding = int(check_count("padding", padding, 0))
        self.activation: Activation = get_activation(activation)

        kh, kw = self.kernel_size
        fan_in = in_channels * kh * kw
        fan_out = filters * kh * kw
        self.weights = glorot_uniform(
            (filters, in_channels, kh, kw), fan_in, fan_out, rng
        )
        self.bias = zeros((filters,))
        self.params = [self.weights, self.bias]
        self.grads = [np.zeros_like(self.weights), np.zeros_like(self.bias)]
        self._cols: Optional[np.ndarray] = None
        self._input_shape: Optional[Tuple[int, int, int, int]] = None
        self._pre_activation: Optional[np.ndarray] = None

    def output_shape(self, height: int, width: int) -> Tuple[int, int]:
        """Spatial output size for a given input size."""
        return conv_output_hw(height, width, self.kernel_size, self.stride, self.padding)

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        if x.ndim != 4 or x.shape[1] != self.in_channels:
            raise ValueError(
                f"Conv2D expects (batch, {self.in_channels}, H, W) input, got {x.shape}"
            )
        out_h, out_w = self.output_shape(x.shape[2], x.shape[3])
        self._cols = im2col(x, self.kernel_size, self.stride, self.padding)
        self._input_shape = x.shape
        pre = self.weights.reshape(self.filters, -1) @ self._cols  # (B, F, P)
        pre += self.bias[:, np.newaxis]
        self._pre_activation = pre.reshape(x.shape[0], self.filters, out_h, out_w)
        return self.activation.forward(self._pre_activation)

    def backward(self, grad_output: np.ndarray, input_grad: bool = True) -> Optional[np.ndarray]:
        grad_pre = self.activation.backward(self._pre_activation, grad_output)
        return self._backward_linear(grad_pre, input_grad)

    def _backward_linear(self, grad_pre: np.ndarray, input_grad: bool) -> Optional[np.ndarray]:
        """Gradients of the linear part ``W @ cols + b`` given ``d loss / d pre``."""
        grad = grad_pre.reshape(grad_pre.shape[0], self.filters, -1)  # (B, F, P)
        grad_weights = np.matmul(grad, self._cols.transpose(0, 2, 1)).sum(axis=0)
        self.grads[0][...] = grad_weights.reshape(self.weights.shape)
        self.grads[1][...] = grad_pre.sum(axis=(0, 2, 3))
        if not input_grad:
            return None
        grad_cols = self.weights.reshape(self.filters, -1).T @ grad  # (B, C*kh*kw, P)
        return col2im(
            grad_cols, self._input_shape, self.kernel_size, self.stride, self.padding
        )

    def __repr__(self) -> str:
        return (
            f"Conv2D({self.in_channels} -> {self.filters}, kernel={self.kernel_size}, "
            f"stride={self.stride}, padding={self.padding}, "
            f"activation={self.activation.name})"
        )


class FrozenConv2D(Conv2D):
    """A convolution whose weights are fixed (not updated by the optimizer).

    Used for the retraining experiments: the first layer is replaced by its
    quantized / stochastic version and frozen, then the rest of the network
    is retrained around it.
    """

    trainable = False

    @classmethod
    def from_conv(cls, conv: Conv2D, weights: np.ndarray, bias: Optional[np.ndarray] = None,
                  activation=None) -> "FrozenConv2D":
        """Clone geometry from an existing conv layer with replacement weights."""
        frozen = cls(
            conv.in_channels,
            conv.filters,
            conv.kernel_size,
            stride=conv.stride,
            padding=conv.padding,
            activation=activation if activation is not None else conv.activation,
        )
        if weights.shape != frozen.weights.shape:
            raise ValueError(
                f"replacement weights shape {weights.shape} does not match "
                f"{frozen.weights.shape}"
            )
        frozen.weights[...] = weights
        frozen.bias[...] = bias if bias is not None else 0.0
        return frozen


class StochasticResolutionConv2D(FrozenConv2D):
    """A frozen conv layer that emulates the *ideal* stochastic first layer.

    The paper retrains the binary portion of the network to compensate for
    "precision losses introduced by shorter stochastic bit-streams"
    (Abstract, Section V-B).  For that compensation to happen, retraining has
    to see the losses the stochastic engine actually introduces, which go
    beyond weight quantization:

    * the input pixels are quantized to ``precision`` bits by the
      ramp-compare converter;
    * the positive- and negative-weight dot products are only resolved to the
      output-counter LSB, i.e. in steps of ``2**tree_depth / 2**precision``;
    * the activation is the sign of the counter difference, with an optional
      soft threshold.

    This layer reproduces exactly that computation (the noise-free limit of
    the stochastic engine -- what a TFF-adder engine computes up to +/-1 LSB),
    so a network retrained around it has adapted to the stochastic first
    layer's resolution.  The backward pass uses the straight-through estimator
    on the underlying real-valued dot products, like :class:`~repro.nn.activations.Sign`.
    """

    trainable = False

    def __init__(
        self,
        in_channels: int,
        filters: int,
        kernel_size,
        precision: int,
        stride: int = 1,
        padding: int = 0,
        soft_threshold: float = 0.0,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__(
            in_channels,
            filters,
            kernel_size,
            stride=stride,
            padding=padding,
            activation=None,
            rng=rng,
        )
        if precision < 2:
            raise ValueError("precision must be at least 2 bits")
        if soft_threshold < 0:
            raise ValueError("soft_threshold must be non-negative")
        self.precision = int(precision)
        self.soft_threshold = float(soft_threshold)
        kh, kw = self.kernel_size
        taps = in_channels * kh * kw
        depth = 0
        while (1 << depth) < taps:
            depth += 1
        #: Scaling factor 2**depth of the balanced adder tree.
        self.tree_scale = 1 << depth

    @classmethod
    def from_conv(
        cls,
        conv: Conv2D,
        weights: np.ndarray,
        precision: int,
        soft_threshold: float = 0.0,
    ) -> "StochasticResolutionConv2D":
        """Clone geometry from an existing conv layer with conditioned weights."""
        layer = cls(
            conv.in_channels,
            conv.filters,
            conv.kernel_size,
            precision=precision,
            stride=conv.stride,
            padding=conv.padding,
            soft_threshold=soft_threshold,
        )
        if weights.shape != layer.weights.shape:
            raise ValueError(
                f"replacement weights shape {weights.shape} does not match "
                f"{layer.weights.shape}"
            )
        if not np.all(np.abs(weights) <= 1.0 + 1e-9):
            raise ValueError("weights must be finite and conditioned into [-1, 1]")
        layer.weights[...] = weights
        layer.bias[...] = 0.0
        return layer

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        if x.ndim != 4 or x.shape[1] != self.in_channels:
            raise ValueError(
                f"expected (batch, {self.in_channels}, H, W) input, got {x.shape}"
            )
        n = 1 << self.precision
        # Ramp-compare conversion quantizes the pixels (floor to the grid).
        quantized = np.floor(np.clip(x, 0.0, 1.0) * n) / n
        out_h, out_w = self.output_shape(x.shape[2], x.shape[3])
        self._cols = im2col(quantized, self.kernel_size, self.stride, self.padding)
        self._input_shape = x.shape
        pos, neg = self._split_dot_products()  # (B, F, P) in dot-product units

        # Counter resolution: one LSB corresponds to tree_scale / N, a power
        # of two, so the in-place division is exact.
        lsb = self.tree_scale / n
        for counts in (pos, neg):
            counts /= lsb
            np.round(counts, out=counts)
        diff = np.subtract(pos, neg, out=pos)
        keep = np.abs(diff, out=neg) >= self.soft_threshold * n
        np.sign(diff, out=diff)
        # Soft threshold: a difference below soft_threshold * N reads as zero.
        # (-1.0 * False is -0.0; adding 0.0 makes every zero +0.0.)
        diff *= keep
        diff += 0.0
        return diff.reshape(x.shape[0], self.filters, out_h, out_w)

    def _split_dot_products(self) -> Tuple[np.ndarray, np.ndarray]:
        """Positive- and negative-weight dot products over the cached columns."""
        flat = self.weights.reshape(self.filters, -1)
        return np.clip(flat, 0.0, None) @ self._cols, np.clip(-flat, 0.0, None) @ self._cols

    def backward(self, grad_output: np.ndarray, input_grad: bool = True) -> Optional[np.ndarray]:
        # Straight-through estimator on the real-valued dot-product difference,
        # recomputed from the cached columns (forward keeps only the counts).
        pos, neg = self._split_dot_products()
        pre = (pos - neg).reshape(grad_output.shape)
        grad_pre = grad_output * (np.abs(pre) <= self.tree_scale)
        return self._backward_linear(grad_pre, input_grad)

    def __repr__(self) -> str:
        return (
            f"StochasticResolutionConv2D(filters={self.filters}, "
            f"kernel={self.kernel_size}, precision={self.precision}, "
            f"soft_threshold={self.soft_threshold})"
        )


class MaxPool2D(Layer):
    """Max pooling over non-overlapping windows.

    Forward takes a running maximum over the ``p * p`` strided views
    ``x[:, :, i::p, j::p]`` in window order ``k = i * p + j`` and records the
    first index that attains it (``np.argmax`` semantics) in the smallest
    unsigned dtype; backward routes each output gradient to that index.  A NaN
    in a window makes its output NaN, as ``np.max`` does.
    """

    trainable = False

    def __init__(self, pool_size: int = 2) -> None:
        super().__init__()
        self.pool_size = check_count("pool_size", pool_size)
        self._argmax: Optional[np.ndarray] = None
        self._input_shape: Optional[Tuple[int, ...]] = None

    def _views(self, x: np.ndarray):
        """The ``p * p`` strided window views of ``x`` in window order."""
        p = self.pool_size
        return [x[:, :, i::p, j::p] for i in range(p) for j in range(p)]

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        if x.ndim != 4:
            raise ValueError(f"MaxPool2D expects (B, C, H, W) input, got {x.shape}")
        height, width = x.shape[2:]
        p = self.pool_size
        if height % p or width % p:
            raise ValueError(
                f"input size {height}x{width} not divisible by pool size {p}"
            )
        self._input_shape = x.shape
        first, *rest = self._views(x)
        out = first.copy()
        argmax = np.zeros(out.shape, dtype=np.min_scalar_type(p * p - 1))
        for k, view in enumerate(rest, start=1):
            # Strict '>' keeps the first maximum; np.maximum propagates NaN.
            np.copyto(argmax, k, where=view > out)
            np.maximum(out, view, out=out)
        self._argmax = argmax
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        grad = np.empty(self._input_shape, dtype=grad_output.dtype)
        for k, view in enumerate(self._views(grad)):
            np.multiply(self._argmax == k, grad_output, out=view)
        return grad

    def __repr__(self) -> str:
        return f"MaxPool2D(pool_size={self.pool_size})"


class Flatten(Layer):
    """Flatten all non-batch dimensions."""

    trainable = False

    def __init__(self) -> None:
        super().__init__()
        self._input_shape: Optional[Tuple[int, ...]] = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        self._input_shape = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        return grad_output.reshape(self._input_shape)


class Dropout(Layer):
    """Inverted dropout (active only during training)."""

    trainable = False

    def __init__(self, rate: float, rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        if not 0.0 <= rate < 1.0:
            raise ValueError("dropout rate must lie in [0, 1)")
        self.rate = float(rate)
        self._rng = rng if rng is not None else np.random.default_rng(0)
        self._mask: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        if not training or self.rate == 0.0:
            self._mask = None
            return x
        keep = 1.0 - self.rate
        self._mask = (self._rng.random(x.shape) < keep) / keep
        return x * self._mask

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._mask is None:
            return grad_output
        return grad_output * self._mask

    def __repr__(self) -> str:
        return f"Dropout(rate={self.rate})"
