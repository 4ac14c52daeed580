"""Byte-per-bit references for the packed stochastic engines.

The engines simulate packed 64-bit words only; the bit-level semantics are
defined once, by the element adders and the reference kernels: the library's
:func:`~repro.sc.dotproduct.stochastic_dot_product` and, here, its bipolar
twin :func:`bipolar_stochastic_dot_product` on one-byte-per-bit arrays.  The
helpers here generate an engine's streams as bytes (``generate_bits`` /
``ramp_compare_batch``) and reduce them through those kernels with the
engine's own adder factory, so MUX select seeds are consumed in the engine's
order.  The differential suites compare every engine path against them.
:func:`reduce_packed` is the one-tree word-level reduction the packed
differential tests and speed rows compare against, and
:func:`mux_select_cascade` the word-level MUX reduction that
``TreePlan.reduce_packed`` ran before it became one masked OR over the leaf
ownership masks: level by level through the select streams, never reading a
mask.
"""

import numpy as np

from repro.bitstream import bipolar_to_unipolar, unpack_bits
from repro.rng import ramp_compare_batch
from repro.sc.dotproduct import split_weights, stochastic_dot_product
from repro.sc.elements import AdderTree, TffAdder, TreePlan, count_ones

import fault_oracle


def xnor_multiply(x, y):
    """Bipolar stochastic multiplication: bitwise XNOR of byte-per-bit streams."""
    x = np.asarray(x, dtype=np.uint8)
    y = np.asarray(y, dtype=np.uint8)
    if x.shape[-1] != y.shape[-1]:
        raise ValueError(f"stream length mismatch: {x.shape[-1]} vs {y.shape[-1]}")
    return (1 - (x ^ y)).astype(np.uint8)


def bipolar_stochastic_dot_product(x_bits, w_bits, adder_factory=TffAdder):
    """Bit-level bipolar dot product: XNOR products reduced by an adder tree.

    The reference for :class:`~repro.sc.bipolar.BipolarDotProductEngine`.
    The tap axis is padded to a power of two with alternating ``1010...``
    streams, which encode bipolar zero (an all-zeros pad would encode -1 and
    bias the sum).  Returns the ones-count of the tree output, shape
    ``(...,)``.
    """
    products = xnor_multiply(x_bits, w_bits)
    taps, length = products.shape[-2:]
    padded = 1 << AdderTree().depth(taps)
    if padded != taps:
        pad = np.zeros(products.shape[:-2] + (padded - taps, length), dtype=np.uint8)
        pad[..., ::2] = 1
        products = np.concatenate([products, pad], axis=-2)
    return count_ones(AdderTree(adder_factory).reduce(products))


def reduce_packed(adder_factory, words, n_bits):
    """Word-level ``AdderTree(adder_factory).reduce`` over packed streams.

    ``words`` has shape ``(..., k, W)`` with ``W = ceil(n_bits / 64)`` uint64
    words per stream.  Nodes are instantiated in the order of
    :meth:`~repro.sc.elements.adders.AdderTree.reduce` (level by level, left
    to right, zero-padded odd levels), so stateful factories -- e.g.
    per-node MUX select seeds -- produce bit-identical trees in both
    representations.
    """
    arr = np.asarray(words)
    if arr.ndim < 2 or arr.shape[-2] == 0:
        raise ValueError("stacked input must have shape (..., k, W) with k >= 1")
    return TreePlan(adder_factory, arr.shape[-2]).reduce_packed(arr, n_bits)


def mux_select_cascade(plan, words, n_bits):
    """``TreePlan.reduce_packed`` of an all-MUX ``plan`` through word-level selects.

    The same signature as the method, so it patches in for it
    (``benchmarks/test_speed_packed.py`` times the faulted MUX bank both
    ways).  Each level selects ``y`` where the node's cached select stream
    is 1 and ``x`` elsewhere, with the zero partner of an odd level's lone
    node; bits past ``n_bits`` pass through from the leftmost leaf.
    """
    if plan.supports_count_reduction:
        raise ValueError("the select cascade reduces all-MUX plans only")
    arr = plan._check_input(np.asarray(words), "W")
    level = arr
    for li in range(plan.depth):
        # y where the select bit is 1, else x: x ^ ((x ^ y) & s), in
        # place on one new array.  A lone last node's zero partner
        # leaves x & ~s, so odd levels need no zero-pad copy.
        x = level[..., 0::2, :]
        y = level[..., 1::2, :]
        out = x.copy()
        out[..., : y.shape[-2], :] ^= y
        out &= plan._selects(li, n_bits, True).reshape(plan.lanes, x.shape[-2], -1)
        out ^= x
        level = out
    out = level[..., 0, :]
    return out[..., 0, :] if plan.lanes == 1 else out


def faulted_bits(engine, bits):
    """Byte-level fault injection: ``bits ^ flips``.

    The flip mask comes from the independent mask reference
    (``tests/fault_oracle.py``, streams numbered from 0 in C order), unpacked
    to bytes, so the result is what the engine's :meth:`apply_faults` and
    counts must reflect.
    """
    if not engine._stream_faults_active:
        return bits
    n = engine.length
    lead, taps = bits.shape[:-2], bits.shape[-2]
    n_streams = int(np.prod(lead)) if lead else 1
    flips = unpack_bits(fault_oracle.masks(engine.faults, n_streams, taps, n, 0), n)
    return (bits.reshape(n_streams, taps, n) ^ flips).reshape(bits.shape)


def input_bits(engine, values):
    """The unipolar engine's (faulted) input streams as bytes, ``(..., N)``."""
    values = np.asarray(values, dtype=np.float64)
    if engine.input_generator == "ramp":
        bits = ramp_compare_batch(values, engine.length)
    else:
        bits = engine._input_sng().generate_bits(values, engine.length)
    return faulted_bits(engine, bits)


def weight_bits(engine, weights):
    """The unipolar engine's positive and negative weight streams as bytes."""
    w_pos, w_neg = split_weights(weights)
    sng = engine._weight_sng()
    return sng.generate_bits(w_pos, engine.length), sng.generate_bits(w_neg, engine.length)


def dot_filters(engine, x, kernels):
    """Per-filter reference of ``engine.dot_filters(x, kernels)``.

    Each kernel's positive then negative tree is reduced by
    :func:`stochastic_dot_product` through one shared adder factory -- the
    filter-major node order of the engine's bank.  Returns ``(pos, neg)``
    count arrays of shape ``(..., filters)``.
    """
    kernels = np.asarray(kernels, dtype=np.float64)
    x_bits = input_bits(engine, x)
    wp, wn = weight_bits(engine, kernels)
    factory = engine._adder_factory()
    pos, neg = [], []
    for f in range(kernels.shape[0]):
        pos.append(stochastic_dot_product(x_bits, wp[f], factory))
        neg.append(stochastic_dot_product(x_bits, wn[f], factory))
    return np.stack(pos, axis=-1), np.stack(neg, axis=-1)


def dot(engine, x, weights):
    """Reference of ``engine.dot(x, weights)``: ``(pos, neg)`` counts ``(...,)``."""
    pos, neg = dot_filters(engine, x, np.asarray(weights)[np.newaxis])
    return pos[..., 0], neg[..., 0]


def bipolar_dot_filters(engine, x, kernels):
    """Per-kernel reference of a bipolar bank: counts ``(..., filters)``.

    Every kernel gets a fresh adder factory -- the bipolar engine restarts
    its MUX select seeds for each evaluation.
    """
    n = engine.length
    x_bits = faulted_bits(
        engine,
        engine._input_sng().generate_bits(engine._input_probabilities(x), n),
    )
    w_bits = engine._weight_sng().generate_bits(
        bipolar_to_unipolar(np.asarray(kernels, dtype=np.float64)), n
    )
    return np.stack(
        [
            bipolar_stochastic_dot_product(x_bits, w, engine._adder_factory())
            for w in w_bits
        ],
        axis=-1,
    )


def bipolar_dot(engine, x, weights):
    """Reference of ``engine.dot(x, weights).count`` for the bipolar engine."""
    return bipolar_dot_filters(engine, x, np.asarray(weights)[np.newaxis])[..., 0]

