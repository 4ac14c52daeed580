"""Differential suite for the convolution layer's comparator-level map.

:meth:`StochasticConv2D.forward` converts each pixel once, cuts level
patches from the level map and tiles them through
:meth:`PreparedWeights.evaluate_levels`.  Its counts must equal, bit for
bit, three references: the per-patch path the layer used to run
(``bank.evaluate(extract_patches(images, ...))``, every tap converted on
its own), the ``mode="streams"`` layer and the byte-per-bit oracle
(``sc_oracle``) -- on both designs, at precision 2-10, for every kernel
size, stride and padding, without faults, under flip rates on both sides of
the corrections crossover (and ``"sparse"``, just below it for the drawn
precision), at forced tiles.  The result's derived ``sign`` and ``value``
must equal the formulas the layer used to store, byte for byte.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.faults import FaultSpec
from repro.sc import StochasticConv2D, new_sc_engine, old_sc_engine
from repro.sc.dotproduct import CORRECTIONS_SHARE
from repro.utils.windows import extract_patches, patches_to_map

import fault_oracle
import sc_oracle
from tiles import forced_tile

DESIGNS = {"this_work": new_sc_engine, "old_sc": old_sc_engine}

#: No faults and flip rates on both sides of the corrections crossover: from
#: N = 64 up 1e-4, 1e-3 and 4e-3 fault 0.6-22.6% of the input words, 1e-2
#: and 1e-1 47% and ~100%.
FLIP_RATES = (1e-4, 1e-3, 4e-3, 1e-2, 1e-1)
FAULTS = {"none": None, **{f"flips_{r:g}": FaultSpec(flip_rate=r, seed=3) for r in FLIP_RATES}}
#: Flips scaled just below the corrections crossover for the drawn precision,
#: so this work's faulted banks take the corrections path with faults present.
SPARSE = "sparse"


def fault_spec(name, precision):
    if name == SPARSE:
        dense = FaultSpec(flip_rate=0.05, seed=3)
        return fault_oracle.sparse_spec(dense, 1 << precision, 0.9 * CORRECTIONS_SHARE)
    return FAULTS[name]


def stored_sign_and_value(pos, neg, length, tree_scale, soft_threshold, out_shape):
    """The sign and value maps the layer computed and stored before they were derived."""
    value = (pos - neg).astype(np.float64) / length * tree_scale
    sign = np.sign(pos - neg).astype(np.int8)
    if soft_threshold > 0.0:
        below = np.abs(pos - neg) < soft_threshold * length
        sign = np.where(below, 0, sign).astype(np.int8)
        value = np.where(below, 0.0, value)
    return patches_to_map(sign, out_shape), patches_to_map(value, out_shape)


def assert_same_bytes(actual, expected):
    assert actual.dtype == expected.dtype and actual.shape == expected.shape
    assert np.ascontiguousarray(actual).tobytes() == np.ascontiguousarray(expected).tobytes()


@pytest.mark.parametrize("faults", [*FAULTS, SPARSE])
@pytest.mark.parametrize("design", DESIGNS)
@settings(deadline=None, max_examples=15)
@given(
    precision=st.integers(min_value=2, max_value=10),
    kernel=st.integers(min_value=1, max_value=5),
    stride=st.integers(min_value=1, max_value=3),
    padding=st.integers(min_value=0, max_value=2),
    size=st.integers(min_value=1, max_value=7),
    batch=st.integers(min_value=1, max_value=2),
    filters=st.integers(min_value=1, max_value=3),
    tile=st.one_of(st.none(), st.integers(min_value=1, max_value=40)),
    # 0.125 puts the threshold on a whole count from precision 3 up.
    soft_threshold=st.sampled_from([0.0, 0.05, 0.125]),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_level_map_counts_match_every_reference(
    design, faults, precision, kernel, stride, padding, size, batch, filters, tile,
    soft_threshold, seed,
):
    assume(size + 2 * padding >= kernel)
    rng = np.random.default_rng(seed)
    images = rng.random((batch, size, size))
    # Pixels on the grid and at both ends hit level boundaries exactly.
    images.flat[:: 3] = rng.integers(0, 1 << precision, images.size)[:: 3] / (1 << precision)
    images.flat[0], images.flat[-1] = 0.0, 1.0
    kernels = rng.uniform(-1.0, 1.0, (filters, kernel, kernel))
    flat_kernels = kernels.reshape(filters, -1)
    engine = DESIGNS[design](precision, seed=seed % 97 + 1, faults=fault_spec(faults, precision))
    layer = StochasticConv2D(
        kernels, engine=engine, padding=padding, stride=stride, soft_threshold=soft_threshold
    )
    with forced_tile(tile):
        result = layer.forward(images)
    out_shape = layer.output_shape((size, size))
    patches = extract_patches(images, (kernel, kernel), stride, padding)

    per_patch = engine.prepare_weights(flat_kernels).evaluate(patches)
    streams = StochasticConv2D(
        kernels, engine=dataclasses.replace(engine, mode="streams"), padding=padding, stride=stride
    ).forward(images)
    oracle = sc_oracle.dot_filters(engine, patches, flat_kernels)
    for pos, neg in (per_patch, oracle):
        np.testing.assert_array_equal(result.positive_count, patches_to_map(pos, out_shape))
        np.testing.assert_array_equal(result.negative_count, patches_to_map(neg, out_shape))
    np.testing.assert_array_equal(result.positive_count, streams.positive_count)
    np.testing.assert_array_equal(result.negative_count, streams.negative_count)

    sign, value = stored_sign_and_value(
        *per_patch, engine.length, layer.bank.tree_scale, soft_threshold, out_shape
    )
    assert_same_bytes(result.sign, sign)
    assert_same_bytes(result.value, value)


@pytest.mark.parametrize("soft_threshold", [0.0, 0.02])
@pytest.mark.parametrize("design", DESIGNS)
def test_sign_and_value_are_the_stored_formulas_at_table3_scale(design, soft_threshold):
    rng = np.random.default_rng(11)
    images = rng.random((2, 28, 28))
    kernels = rng.uniform(-1.0, 1.0, (8, 5, 5))
    engine = DESIGNS[design](8, seed=2)
    layer = StochasticConv2D(kernels, engine=engine, padding=2, soft_threshold=soft_threshold)
    result = layer.forward(images)
    pos, neg = engine.prepare_weights(kernels.reshape(8, 25)).evaluate(
        extract_patches(images, (5, 5), 1, 2)
    )
    sign, value = stored_sign_and_value(pos, neg, 256, layer.bank.tree_scale, soft_threshold, (28, 28))
    assert_same_bytes(result.sign, sign)
    assert_same_bytes(result.value, value)
    assert result.positive_count.dtype == result.negative_count.dtype == np.int64


def test_evaluate_levels_rejects_values():
    bank = new_sc_engine(4).prepare_weights(np.full((2, 3), 0.5))
    with pytest.raises(TypeError, match="comparator levels must be integers"):
        bank.evaluate_levels(np.full((4, 3), 0.5))
    with pytest.raises(ValueError, match="tap count mismatch"):
        bank.evaluate_levels(np.zeros((4, 2), dtype=np.int16))
