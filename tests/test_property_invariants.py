"""Cross-module property-based tests (hypothesis) on core invariants."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.netlist import build_array_multiplier, build_ripple_adder, simulate
from repro.nn import build_lenet5_small, quantize_and_freeze
from repro.rng import ComparatorSNG, LFSRSource, VanDerCorputSource, ramp_compare_batch
from repro.sc import AdderTree, TffAdder, count_ones


def int_to_bits(value, bits):
    return [(value >> i) & 1 for i in range(bits)]


def bits_to_int(bits):
    return sum(int(b) << i for i, b in enumerate(bits))


class TestNetlistArithmeticProperties:
    @given(st.integers(0, 255), st.integers(0, 255))
    @settings(max_examples=20, deadline=None)
    def test_ripple_adder_adds(self, a, b):
        bits = 8
        net = build_ripple_adder(bits)
        stim = {}
        for i in range(bits):
            stim[f"a{i}"] = [int_to_bits(a, bits)[i]]
            stim[f"b{i}"] = [int_to_bits(b, bits)[i]]
        result = simulate(net, stim)
        total = bits_to_int([result.waveform(f"s{i}")[0] for i in range(bits)])
        total += int(result.waveform("cout")[0]) << bits
        assert total == a + b

    @given(st.integers(0, 31), st.integers(0, 31))
    @settings(max_examples=20, deadline=None)
    def test_array_multiplier_multiplies(self, a, b):
        bits = 5
        net = build_array_multiplier(bits)
        stim = {}
        for i in range(bits):
            stim[f"a{i}"] = [int_to_bits(a, bits)[i]]
            stim[f"b{i}"] = [int_to_bits(b, bits)[i]]
        result = simulate(net, stim)
        product = bits_to_int([result.waveform(f"p{i}")[0] for i in range(2 * bits)])
        assert product == a * b


class TestStochasticInvariants:
    @given(
        st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=2, max_size=25),
        st.sampled_from([4, 5, 6, 7]),
    )
    @settings(max_examples=30, deadline=None)
    def test_tff_tree_error_bound_on_ramp_streams(self, values, precision):
        # For ramp-converted (auto-correlated) inputs, the TFF adder tree's
        # ones-count differs from the exact scaled sum by at most one LSB per
        # tree level -- the paper's core accuracy argument.
        n = 1 << precision
        streams = ramp_compare_batch(np.array(values), n)
        tree = AdderTree(TffAdder)
        result = tree.reduce(streams)
        depth = tree.depth(len(values))
        exact = streams.sum() / (1 << depth)
        assert abs(int(count_ones(result)) - exact) <= depth

    @given(st.sampled_from([4, 6, 8]), st.integers(1, 200))
    @settings(max_examples=20, deadline=None)
    def test_sng_count_monotone_in_value(self, precision, seed):
        # For a fixed number source, a larger encoded value can never produce
        # fewer ones: the comparator output is monotone in its threshold.
        n = 1 << precision
        values = np.linspace(0, 1, 9)
        for source in (LFSRSource(precision, seed=seed), VanDerCorputSource(precision)):
            counts = ComparatorSNG(source).generate_bits(values, n).sum(axis=-1)
            assert np.all(np.diff(counts) >= 0)

    @given(st.sampled_from([2, 4, 8]))
    @settings(max_examples=3, deadline=None)
    def test_quantize_and_freeze_preserves_other_layers(self, precision):
        model = build_lenet5_small(filters1=4, filters2=4, hidden_units=8, seed=1)
        frozen = quantize_and_freeze(model, precision=precision)
        original_weights = [p for layer in model.layers for p in layer.params]
        frozen_weights = [p for layer in frozen.layers for p in layer.params]
        # Same number of parameter arrays, and every array after the first
        # conv layer's (weights, bias) pair is identical.
        assert len(original_weights) == len(frozen_weights)
        for original, copy in zip(original_weights[2:], frozen_weights[2:]):
            np.testing.assert_allclose(original, copy)
        # The first layer's weights are conditioned into the bipolar grid.
        assert np.abs(frozen_weights[0]).max() <= 1.0


class TestHybridEndToEnd:
    def test_tiny_pipeline_runs_and_is_consistent(self):
        # A miniature end-to-end run: synthetic digits -> train -> condition ->
        # hybrid inference in all three modes on a couple of images.
        from repro.datasets import SyntheticDigits
        from repro.hybrid import HybridStochasticBinaryNetwork
        from repro.nn import Adam, retrain
        from repro.sc import new_sc_engine

        data = SyntheticDigits.generate(train_size=120, test_size=20, seed=2)
        x_train = data.x_train[:, np.newaxis]
        model = build_lenet5_small(filters1=4, filters2=4, hidden_units=16, seed=2,
                                   dropout_rate=0.0)
        model.fit(x_train, data.y_train, epochs=2, batch_size=32, optimizer=Adam(2e-3))
        frozen = quantize_and_freeze(model, precision=5, sc_resolution=True)
        retrain(frozen, x_train, data.y_train, epochs=1, optimizer=Adam(1e-3))
        hybrid = HybridStochasticBinaryNetwork(frozen, engine=new_sc_engine(5), seed=3)
        for mode in ("binary", "emulate", "bitexact"):
            predictions = hybrid.predict_classes(data.x_test[:3], mode=mode)
            assert predictions.shape == (3,)
            assert np.all((predictions >= 0) & (predictions <= 9))
