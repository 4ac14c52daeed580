"""Reference implementations of the numpy training layers.

:mod:`repro.nn` lowers convolutions onto channel-major columns ``(B,
C*kh*kw, P)`` and pools from strided views, and ``Sequential.fit``
back-propagates only down to the first trainable layer.  The code they
replace is kept here as the reference, unchanged:

* :func:`im2col` / :func:`col2im` on patch rows ``(B, P, C*kh*kw)``;
* the reshape/argmax :class:`MaxPool2D` with a float routing mask;
* the ``einsum`` forward and backward of :class:`Conv2D` (and
  :class:`FrozenConv2D`) and of :class:`StochasticResolutionConv2D`;
* :func:`fit`, the training loop that runs the full ``Sequential.backward``
  before every optimizer step.

The layers subclass the library's, so they share its constructors and
``from_conv``; :func:`as_oracle` copies a model onto them.  The
differential suite and the training-step speed row compare the library
against them.
"""

import copy

import numpy as np

from repro.nn import Adam, SoftmaxCrossEntropy, layers
from repro.nn.conv_ops import conv_output_hw


def im2col(x, kernel, stride=1, padding=0):
    """Unfold ``(B, C, H, W)`` inputs into ``(B, out_h*out_w, C*kh*kw)`` patch rows."""
    if x.ndim != 4:
        raise ValueError(f"expected (B, C, H, W) input, got shape {x.shape}")
    batch, channels, height, width = x.shape
    kh, kw = kernel
    out_h, out_w = conv_output_hw(height, width, kernel, stride, padding)

    if padding > 0:
        x = np.pad(
            x, ((0, 0), (0, 0), (padding, padding), (padding, padding)), mode="constant"
        )

    s0, s1, s2, s3 = x.strides
    view = np.lib.stride_tricks.as_strided(
        x,
        shape=(batch, channels, out_h, out_w, kh, kw),
        strides=(s0, s1, s2 * stride, s3 * stride, s2, s3),
        writeable=False,
    )
    # (B, out_h, out_w, C, kh, kw) -> (B, P, C*kh*kw)
    patches = view.transpose(0, 2, 3, 1, 4, 5).reshape(
        batch, out_h * out_w, channels * kh * kw
    )
    return np.ascontiguousarray(patches)


def col2im(cols, input_shape, kernel, stride=1, padding=0):
    """Adjoint of :func:`im2col`: scatter patch rows back onto the input grid.

    Overlapping patch contributions are summed, which is exactly the input
    gradient of a convolution.
    """
    batch, channels, height, width = input_shape
    kh, kw = kernel
    out_h, out_w = conv_output_hw(height, width, kernel, stride, padding)
    if cols.shape != (batch, out_h * out_w, channels * kh * kw):
        raise ValueError(
            f"cols shape {cols.shape} does not match expected "
            f"{(batch, out_h * out_w, channels * kh * kw)}"
        )

    padded = np.zeros(
        (batch, channels, height + 2 * padding, width + 2 * padding), dtype=cols.dtype
    )
    reshaped = cols.reshape(batch, out_h, out_w, channels, kh, kw)
    for i in range(kh):
        for j in range(kw):
            padded[
                :,
                :,
                i : i + stride * out_h : stride,
                j : j + stride * out_w : stride,
            ] += reshaped[:, :, :, :, i, j].transpose(0, 3, 1, 2)
    if padding > 0:
        return padded[:, :, padding:-padding, padding:-padding]
    return padded


class _ConvOracle:
    """``einsum`` forward and backward of a convolution over patch rows."""

    def forward(self, x, training=False):
        if x.ndim != 4 or x.shape[1] != self.in_channels:
            raise ValueError(
                f"Conv2D expects (batch, {self.in_channels}, H, W) input, got {x.shape}"
            )
        batch = x.shape[0]
        out_h, out_w = self.output_shape(x.shape[2], x.shape[3])
        cols = im2col(x, self.kernel_size, self.stride, self.padding)
        weight_matrix = self.weights.reshape(self.filters, -1)
        out = cols @ weight_matrix.T + self.bias  # (B, P, F)
        self._cols = cols
        self._input_shape = x.shape
        pre = out.transpose(0, 2, 1).reshape(batch, self.filters, out_h, out_w)
        self._pre_activation = pre
        return self.activation.forward(pre)

    def backward(self, grad_output):
        grad_pre = self.activation.backward(self._pre_activation, grad_output)
        batch, filters, out_h, out_w = grad_pre.shape
        grad_mat = grad_pre.reshape(batch, filters, out_h * out_w).transpose(0, 2, 1)
        weight_matrix = self.weights.reshape(self.filters, -1)

        grad_weights = np.einsum("bpf,bpk->fk", grad_mat, self._cols)
        self.grads[0][...] = grad_weights.reshape(self.weights.shape)
        self.grads[1][...] = grad_pre.sum(axis=(0, 2, 3))

        grad_cols = grad_mat @ weight_matrix  # (B, P, C*kh*kw)
        return col2im(
            grad_cols, self._input_shape, self.kernel_size, self.stride, self.padding
        )


class Conv2D(_ConvOracle, layers.Conv2D):
    """Reference :class:`repro.nn.Conv2D`."""


class FrozenConv2D(_ConvOracle, layers.FrozenConv2D):
    """Reference :class:`repro.nn.FrozenConv2D`."""


class StochasticResolutionConv2D(layers.StochasticResolutionConv2D):
    """Reference :class:`repro.nn.StochasticResolutionConv2D`."""

    def forward(self, x, training=False):
        if x.ndim != 4 or x.shape[1] != self.in_channels:
            raise ValueError(
                f"expected (batch, {self.in_channels}, H, W) input, got {x.shape}"
            )
        n = 1 << self.precision
        # Ramp-compare conversion quantizes the pixels (floor to the grid).
        quantized = np.floor(np.clip(x, 0.0, 1.0) * n) / n
        batch = x.shape[0]
        out_h, out_w = self.output_shape(x.shape[2], x.shape[3])
        cols = im2col(quantized, self.kernel_size, self.stride, self.padding)

        flat = self.weights.reshape(self.filters, -1)
        w_pos = np.clip(flat, 0.0, None)
        w_neg = np.clip(-flat, 0.0, None)
        pos = cols @ w_pos.T  # (B, P, F) in dot-product units
        neg = cols @ w_neg.T

        # Counter resolution: one LSB corresponds to tree_scale / N.
        lsb = self.tree_scale / n
        pos_counts = np.round(pos / lsb)
        neg_counts = np.round(neg / lsb)
        diff = pos_counts - neg_counts

        sign = np.sign(diff)
        if self.soft_threshold > 0.0:
            sign = np.where(np.abs(diff) < self.soft_threshold * n, 0.0, sign)

        # Cache the real-valued difference for the straight-through backward.
        self._cols = cols
        self._input_shape = x.shape
        self._pre_activation = (
            (pos - neg).transpose(0, 2, 1).reshape(batch, self.filters, out_h, out_w)
        )
        return sign.transpose(0, 2, 1).reshape(batch, self.filters, out_h, out_w)

    def backward(self, grad_output):
        # Straight-through estimator on the real-valued dot-product difference.
        grad_pre = grad_output * (np.abs(self._pre_activation) <= self.tree_scale)
        batch, filters, out_h, out_w = grad_pre.shape
        grad_mat = grad_pre.reshape(batch, filters, out_h * out_w).transpose(0, 2, 1)
        weight_matrix = self.weights.reshape(self.filters, -1)
        self.grads[0][...] = np.einsum("bpf,bpk->fk", grad_mat, self._cols).reshape(
            self.weights.shape
        )
        self.grads[1][...] = grad_pre.sum(axis=(0, 2, 3))
        grad_cols = grad_mat @ weight_matrix
        return col2im(
            grad_cols, self._input_shape, self.kernel_size, self.stride, self.padding
        )


class MaxPool2D(layers.MaxPool2D):
    """Reference :class:`repro.nn.MaxPool2D`: reshape, argmax, float mask."""

    def forward(self, x, training=False):
        if x.ndim != 4:
            raise ValueError(f"MaxPool2D expects (B, C, H, W) input, got {x.shape}")
        batch, channels, height, width = x.shape
        p = self.pool_size
        if height % p or width % p:
            raise ValueError(
                f"input size {height}x{width} not divisible by pool size {p}"
            )
        self._input_shape = x.shape
        reshaped = x.reshape(batch, channels, height // p, p, width // p, p)
        windows = reshaped.transpose(0, 1, 2, 4, 3, 5).reshape(
            batch, channels, height // p, width // p, p * p
        )
        out = windows.max(axis=-1)
        # Mask of the (first) argmax within each window for routing gradients.
        argmax = windows.argmax(axis=-1)
        mask = np.zeros_like(windows)
        np.put_along_axis(mask, argmax[..., np.newaxis], 1.0, axis=-1)
        self._mask = mask
        return out

    def backward(self, grad_output):
        batch, channels, height, width = self._input_shape
        p = self.pool_size
        distributed = self._mask * grad_output[..., np.newaxis]
        grad = distributed.reshape(
            batch, channels, height // p, width // p, p, p
        ).transpose(0, 1, 2, 4, 3, 5)
        return grad.reshape(batch, channels, height, width)


_ORACLES = {
    layers.Conv2D: Conv2D,
    layers.FrozenConv2D: FrozenConv2D,
    layers.StochasticResolutionConv2D: StochasticResolutionConv2D,
    layers.MaxPool2D: MaxPool2D,
}


def as_oracle(model):
    """A deep copy of ``model`` whose conv and pooling layers run the reference code."""
    clone = copy.deepcopy(model)
    for layer in clone.layers:
        layer.__class__ = _ORACLES.get(type(layer), type(layer))
    return clone


def parameters(model):
    """Every parameter array of ``model``, in layer order (views, not copies)."""
    return [p for layer in model.layers for p in layer.params]


def fit(model, x, y, epochs=1, batch_size=64, loss=None, optimizer=None, shuffle=True,
        rng=None):
    """``Sequential.fit``'s loop with a full backward pass before every step.

    Same batches, loss and optimizer calls as the library's ``fit``; returns
    the per-epoch mean losses.
    """
    loss = loss if loss is not None else SoftmaxCrossEntropy()
    optimizer = optimizer if optimizer is not None else Adam()
    rng = rng if rng is not None else np.random.default_rng(0)
    n = x.shape[0]
    losses = []
    for _ in range(epochs):
        indices = rng.permutation(n) if shuffle else np.arange(n)
        epoch_loss = 0.0
        for start in range(0, n, batch_size):
            batch_idx = indices[start : start + batch_size]
            xb, yb = x[batch_idx], y[batch_idx]
            logits = model.forward(xb, training=True)
            batch_loss, grad = loss.forward(logits, yb)
            for layer in reversed(model.layers):
                grad = layer.backward(grad)
            params, grads = model.trainable_parameters()
            optimizer.step(params, grads)
            epoch_loss += batch_loss * len(batch_idx)
        losses.append(epoch_loss / n)
    return losses
