"""Bit-exact first-layer outputs depend only on (image, config, seed).

A hybrid network builds its first-layer filter bank once, and a bank is a
pure function of (engine, kernels): MUX select seeds restart with every
bank.  So on both designs, without stream faults, ``first_layer_bitexact``
and ``predict_classes(mode="bitexact")`` give every image the same output
however the images are batched (one batch, 4 + 4, 1 + 7), on a repeated
call, in a permuted order (the outputs permute with the images) and at a
forced tile.  Every case runs on the network that already served the
reference call, so call history is covered too.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets import SyntheticDigits
from repro.hybrid import HybridStochasticBinaryNetwork
from repro.nn import build_lenet5_small, quantize_and_freeze
from repro.sc import new_sc_engine, old_sc_engine

from tiles import forced_tile

DESIGNS = {"this_work": new_sc_engine, "old_sc": old_sc_engine}
PRECISION = 5
IMAGES = 8


@pytest.fixture(scope="module")
def model():
    base = build_lenet5_small(filters1=6, filters2=4, hidden_units=16, seed=3)
    return quantize_and_freeze(base, precision=PRECISION, sc_resolution=True, soft_threshold=0.02)


@pytest.fixture(scope="module")
def images():
    return SyntheticDigits.generate(train_size=1, test_size=IMAGES, seed=4).x_test


def network(model, design):
    engine = DESIGNS[design](PRECISION, seed=7)
    return HybridStochasticBinaryNetwork(model, engine=engine, soft_threshold=0.02, seed=1)


def first_layer_in_parts(net, images, sizes):
    """``first_layer_bitexact`` over consecutive parts of ``images``, concatenated."""
    bounds = np.cumsum([0, *sizes])
    return np.concatenate(
        [net.first_layer_bitexact(images[a:b]) for a, b in zip(bounds[:-1], bounds[1:])]
    )


@pytest.mark.parametrize("design", DESIGNS)
def test_first_layer_is_independent_of_batching_history_order_and_tile(model, images, design):
    net = network(model, design)
    expected = net.first_layer_bitexact(images)
    # The first layer must not be trivial, or every case would pass.
    assert len(np.unique(expected)) == 3
    for sizes in ((4, 4), (1, 7)):
        np.testing.assert_array_equal(first_layer_in_parts(net, images, sizes), expected)
    np.testing.assert_array_equal(net.first_layer_bitexact(images), expected)
    order = np.random.default_rng(0).permutation(IMAGES)
    np.testing.assert_array_equal(net.first_layer_bitexact(images[order]), expected[order])
    with forced_tile(37):
        np.testing.assert_array_equal(net.first_layer_bitexact(images), expected)
    # A fresh network of the same configuration agrees with the used one.
    np.testing.assert_array_equal(network(model, design).first_layer_bitexact(images), expected)


@pytest.mark.parametrize("design", DESIGNS)
def test_predicted_classes_are_independent_of_batching_history_order_and_tile(
    model, images, design
):
    net = network(model, design)
    expected = net.predict_classes(images, mode="bitexact", batch_size=IMAGES)
    for batch_size in (4, 7):  # 4 + 4 and 7 + 1
        np.testing.assert_array_equal(
            net.predict_classes(images, mode="bitexact", batch_size=batch_size), expected
        )
    split = np.concatenate(
        [net.predict_classes(part, mode="bitexact") for part in (images[:1], images[1:])]
    )
    np.testing.assert_array_equal(split, expected)
    np.testing.assert_array_equal(net.predict_classes(images, mode="bitexact"), expected)
    order = np.random.default_rng(1).permutation(IMAGES)
    np.testing.assert_array_equal(net.predict_classes(images[order], mode="bitexact"), expected[order])
    with forced_tile(37):
        np.testing.assert_array_equal(net.predict_classes(images, mode="bitexact"), expected)


@settings(deadline=None, max_examples=10)
@given(
    design=st.sampled_from(sorted(DESIGNS)),
    order=st.permutations(range(IMAGES)),
    cut=st.integers(min_value=1, max_value=IMAGES - 1),
    tile=st.one_of(st.none(), st.integers(min_value=1, max_value=800)),
)
def test_any_split_order_and_tile_gives_each_image_its_output(model, images, design, order, cut, tile):
    net = network(model, design)
    expected = net.first_layer_bitexact(images)
    order = np.asarray(order)
    with forced_tile(tile):
        parts = first_layer_in_parts(net, images[order], (cut, IMAGES - cut))
    np.testing.assert_array_equal(parts, expected[order])
