"""Differential equivalence suite: packed words vs. the byte-per-bit reference.

Every gate-level identity of the packed word kernels is machine-checked
against the byte-per-bit element functions on uint8 bit arrays, over randomized
values and lengths -- including lengths that are not multiples of 64, where
tail-word handling matters.  The engines, the convolution layer and the
Table 1/2 sweeps run packed only; they are checked against the byte-per-bit
reference kernels (see ``sc_oracle``).  The claim is *bit-identical*
output, so every assertion here is exact equality, never approximate.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.bitstream import (
    Bitstream,
    mask_tail,
    pack_bits,
    packed_not,
    packed_popcount,
    packed_tff_add,
    packed_toggle_states,
    unpack_bits,
)
from repro.sc import (
    AdderTree,
    MuxAdder,
    StochasticConv2D,
    StochasticDotProductEngine,
    TffAdder,
    new_sc_engine,
    old_sc_engine,
)
from repro.sc.dotproduct import stochastic_dot_product
from repro.sc.elements.adders import TreePlan, mux_add, tff_add
from repro.sc.elements.flipflops import toggle_states
from repro.utils.windows import extract_patches, patches_to_map

import sc_oracle

#: Lengths exercising empty tails, full words, one-bit tails and long streams.
LENGTHS = [1, 2, 7, 63, 64, 65, 100, 127, 128, 129, 256, 1000]


def random_bits(rng, shape):
    return rng.integers(0, 2, size=shape).astype(np.uint8)


class TestPackUnpackRoundTrip:
    @pytest.mark.parametrize("length", LENGTHS)
    def test_array_round_trip(self, length):
        rng = np.random.default_rng(length)
        bits = random_bits(rng, (3, 4, length))
        words = pack_bits(bits)
        assert words.dtype == np.uint64
        assert words.shape == (3, 4, (length + 63) // 64)
        np.testing.assert_array_equal(unpack_bits(words, length), bits)

    @pytest.mark.parametrize("length", LENGTHS)
    def test_bitstream_round_trip(self, length):
        rng = np.random.default_rng(length + 1)
        for value in rng.random(3):
            stream = Bitstream.from_random(value, length, rng=rng)
            words = pack_bits(stream.bits)
            np.testing.assert_array_equal(unpack_bits(words, length), stream.bits)
            assert packed_popcount(words) == stream.ones

class TestExtendPeriodic:
    """The wrap kernel behind closed-form LFSR resolution."""

    def test_reference_semantics(self):
        from repro.bitstream.packed import extend_periodic

        prefix = np.array([1, 0, 1, 1, 0], dtype=np.uint8)  # transient 2, period 3
        extended = extend_periodic(prefix, 11, transient=2, period=3)
        np.testing.assert_array_equal(extended, [1, 0, 1, 1, 0, 1, 1, 0, 1, 1, 0])

    def test_zero_transient_tiles_from_start(self):
        from repro.bitstream.packed import extend_periodic

        prefix = np.array([[1, 0], [0, 1]], dtype=np.uint8)  # batched, period 2
        extended = extend_periodic(prefix, 5, transient=0, period=2)
        np.testing.assert_array_equal(extended, [[1, 0, 1, 0, 1], [0, 1, 0, 1, 0]])

    def test_shorter_target_truncates(self):
        from repro.bitstream.packed import extend_periodic

        prefix = np.array([1, 1, 0], dtype=np.uint8)
        np.testing.assert_array_equal(
            extend_periodic(prefix, 2, transient=0, period=3), [1, 1]
        )

    def test_validation(self):
        from repro.bitstream.packed import extend_periodic

        bits = np.zeros(4, dtype=np.uint8)
        with pytest.raises(ValueError, match="period"):
            extend_periodic(bits, 8, transient=0, period=0)
        with pytest.raises(ValueError, match="transient"):
            extend_periodic(bits, 8, transient=-1, period=2)
        with pytest.raises(ValueError, match="positions"):
            extend_periodic(bits, 8, transient=3, period=2)


class TestGateEquivalence:
    @pytest.mark.parametrize("length", LENGTHS)
    def test_and_or_xor_not(self, length):
        rng = np.random.default_rng(length + 2)
        x = random_bits(rng, length)
        y = random_bits(rng, length)
        xp, yp = pack_bits(x), pack_bits(y)
        np.testing.assert_array_equal(unpack_bits(xp & yp, length), x & y)
        np.testing.assert_array_equal(unpack_bits(xp | yp, length), x | y)
        np.testing.assert_array_equal(unpack_bits(xp ^ yp, length), x ^ y)
        np.testing.assert_array_equal(unpack_bits(packed_not(xp, length), length), 1 - x)

    @pytest.mark.parametrize("length", LENGTHS)
    @pytest.mark.parametrize("initial_state", [0, 1])
    def test_toggle_states(self, length, initial_state):
        rng = np.random.default_rng(length + 3)
        trigger = random_bits(rng, (2, length))
        expected = toggle_states(trigger, initial_state)
        got = unpack_bits(
            packed_toggle_states(pack_bits(trigger), length, initial_state), length
        )
        np.testing.assert_array_equal(got, expected)

    @pytest.mark.parametrize("length", LENGTHS)
    @pytest.mark.parametrize("initial_state", [0, 1])
    def test_tff_adder(self, length, initial_state):
        rng = np.random.default_rng(length + 4)
        x = random_bits(rng, (3, length))
        y = random_bits(rng, (3, length))
        expected = tff_add(x, y, initial_state=initial_state)
        got = unpack_bits(
            packed_tff_add(pack_bits(x), pack_bits(y), length, initial_state), length
        )
        np.testing.assert_array_equal(got, expected)

    @pytest.mark.parametrize("length", LENGTHS)
    def test_mux_adder(self, length):
        # One MUX node reduced on words against the byte-level mux_add.
        rng = np.random.default_rng(length + 5)
        x = random_bits(rng, (3, length))
        y = random_bits(rng, (3, length))
        select = MuxAdder(seed=length).select_bits(length)
        expected = mux_add(x, y, select)
        streams = np.stack([x, y], axis=-2)
        got = unpack_bits(
            sc_oracle.reduce_packed(lambda: MuxAdder(seed=length), pack_bits(streams), length),
            length,
        )
        np.testing.assert_array_equal(got, expected)

    @pytest.mark.parametrize("length", LENGTHS)
    def test_popcount(self, length):
        rng = np.random.default_rng(length + 6)
        bits = random_bits(rng, (5, length))
        np.testing.assert_array_equal(
            packed_popcount(pack_bits(bits)), bits.sum(axis=-1)
        )


class TestAdderTreeEquivalence:
    @pytest.mark.parametrize("taps", [1, 2, 3, 5, 8, 13])
    @pytest.mark.parametrize(
        "factory",
        [TffAdder, lambda: TffAdder(initial_state=1)],
        ids=["tff", "tff_init1"],
    )
    def test_tree_matches_unpacked(self, taps, factory):
        rng = np.random.default_rng(taps)
        length = 200  # not a multiple of 64: exercises the tail at every level
        streams = random_bits(rng, (4, taps, length))
        tree = AdderTree(factory)
        expected = tree.reduce(streams)
        got = unpack_bits(sc_oracle.reduce_packed(factory, pack_bits(streams), length), length)
        np.testing.assert_array_equal(got, expected)

    @pytest.mark.parametrize("taps", [1, 2, 3, 5, 8, 13])
    def test_mux_tree_with_stateful_factory(self, taps):
        # Per-node select seeds must be consumed in the same order by both
        # representations, including the zero-padded node of odd levels.
        rng = np.random.default_rng(9)
        length = 200

        def make_factories():
            counter = [0]

            def factory():
                counter[0] += 1
                return MuxAdder(seed=1000 + counter[0])

            return factory

        streams = random_bits(rng, (3, taps, length))
        expected = AdderTree(make_factories()).reduce(streams)
        got = sc_oracle.reduce_packed(make_factories(), pack_bits(streams), length)
        np.testing.assert_array_equal(unpack_bits(got, length), expected)


def plan_factory(kind):
    """A fresh node factory: seeded or toggle MUX selects, or TFF nodes of one initial state."""
    if kind == "mux_seeded":
        seeds = itertools.count(101)
        return lambda: MuxAdder(seed=next(seeds))
    if kind == "mux_toggle":
        return lambda: MuxAdder(toggle_select=True)
    return lambda: TffAdder(initial_state=int(kind[-1]))


def laid_out(words, layout):
    """``words`` ``(..., k, W)`` as the same view over C, leaf-major or bank memory.

    ``"leaf_major"`` is ``np.moveaxis`` of a ``(k, ..., W)`` array and
    ``"bank"`` the filter banks' leaf products, ``(k, ..., W, lanes)``
    memory with the lane axis (axis -3) innermost.
    """
    if layout == "c":
        return words
    leaf_major = np.ascontiguousarray(np.moveaxis(words, -2, 0))
    if layout == "leaf_major" or words.ndim < 3:
        return np.moveaxis(leaf_major, 0, -2)
    bank = np.ascontiguousarray(np.moveaxis(leaf_major, -2, -1))
    return np.moveaxis(np.moveaxis(bank, -1, -2), 0, -2)


class TestTreePlanEquivalence:
    """``TreePlan.reduce_packed`` against the byte-level level loop ``reduce_bits``.

    All-MUX plans reduce packed words as one OR of the leaves ANDed with
    their ``leaf_masks``, the masks the banks' leaf tables read too; here
    they also meet the word-level select cascade of the oracle, which reads
    only the select streams.
    """

    @settings(max_examples=150, deadline=None)
    @given(
        kind=st.sampled_from(["mux_seeded", "mux_toggle", "tff0", "tff1"]),
        leaves=st.integers(1, 40),
        lanes=st.integers(1, 5),
        rows=st.lists(st.integers(1, 3), max_size=2),
        n_bits=st.sampled_from([16, 96, 200, 256]),
        layout=st.sampled_from(["c", "leaf_major", "bank"]),
        seed=st.integers(0, 1 << 16),
    )
    def test_reduce_packed_matches_reduce_bits(
        self, kind, leaves, lanes, rows, n_bits, layout, seed
    ):
        plan = TreePlan(plan_factory(kind), leaves, lanes=lanes)
        rng = np.random.default_rng(seed)
        shape = tuple(rows) + ((lanes,) if lanes > 1 else ()) + (leaves, n_bits)
        bits = random_bits(rng, shape)
        words = laid_out(pack_bits(bits), layout)
        expected = pack_bits(plan.reduce_bits(bits))
        got = plan.reduce_packed(words, n_bits)
        np.testing.assert_array_equal(got, expected)
        np.testing.assert_array_equal(mask_tail(got.copy(), n_bits), got)  # clean tail bits
        if kind.startswith("mux") and leaves > 1:
            cascade = sc_oracle.mux_select_cascade(plan, words, n_bits)
            np.testing.assert_array_equal(cascade, expected)

    def test_plan_rejects_levels_of_two_kinds(self):
        # Four leaves: two TFF nodes on the first level, a MUX root.
        nodes = iter([TffAdder(), TffAdder(), MuxAdder(seed=1)])
        with pytest.raises(ValueError, match="one adder kind"):
            TreePlan(lambda: next(nodes), 4)
        # Levels may differ in their TFF initial state.
        states = iter([TffAdder(), TffAdder(), TffAdder(initial_state=1)])
        plan = TreePlan(lambda: next(states), 4)
        bits = random_bits(np.random.default_rng(3), (5, 4, 96))
        np.testing.assert_array_equal(
            plan.reduce_packed(pack_bits(bits), 96), pack_bits(plan.reduce_bits(bits))
        )


class TestDotProductEquivalence:
    @pytest.mark.parametrize("adder", [TffAdder])
    def test_raw_kernel(self, adder):
        rng = np.random.default_rng(11)
        x = random_bits(rng, (6, 9, 300))
        w = random_bits(rng, (9, 300))
        expected = stochastic_dot_product(x, w, adder)
        got = packed_popcount(
            sc_oracle.reduce_packed(adder, pack_bits(x) & pack_bits(w), 300)
        )
        np.testing.assert_array_equal(got, expected)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(adder="tff", input_generator="ramp", weight_generator="lowdisc"),
            dict(adder="mux", input_generator="lfsr", weight_generator="lfsr"),
            dict(adder="mux", input_generator="ramp", weight_generator="lfsr"),
            dict(adder="tff", input_generator="lfsr", weight_generator="lfsr"),
        ],
        ids=["this_work", "old_sc", "mux_ramp", "tff_lfsr"],
    )
    @pytest.mark.parametrize("precision", [4, 6, 8])
    def test_engine_backends_bit_identical(self, kwargs, precision):
        # The packed engine against the byte-per-bit reference kernel.
        rng = np.random.default_rng(precision)
        x = rng.random((5, 25))
        w = rng.uniform(-1.0, 1.0, 25)
        packed = StochasticDotProductEngine(precision=precision, seed=7, **kwargs).dot(x, w)
        pos, neg = sc_oracle.dot(
            StochasticDotProductEngine(precision=precision, seed=7, **kwargs), x, w
        )
        np.testing.assert_array_equal(packed.positive_count, pos)
        np.testing.assert_array_equal(packed.negative_count, neg)
        np.testing.assert_array_equal(packed.sign, np.sign(pos - neg))
        assert packed.tree_scale == 1 << AdderTree().depth(25)

    def test_generate_packed_matches_generate_bits(self):
        for factory, precision in ((new_sc_engine, 6), (old_sc_engine, 5)):
            engine = factory(precision, seed=3)
            values = np.linspace(0.0, 1.0, 7).reshape(7, 1).repeat(2, axis=1)
            # Prepared inputs are comparator levels; input_words expands them.
            np.testing.assert_array_equal(
                unpack_bits(engine.input_words(engine.prepare_inputs(values)), engine.length),
                sc_oracle.input_bits(engine, values),
            )
            w = np.linspace(-1.0, 1.0, 9)
            pos_w, neg_w = engine.weight_words(w)
            pos_b, neg_b = sc_oracle.weight_bits(engine, w)
            np.testing.assert_array_equal(unpack_bits(pos_w, engine.length), pos_b)
            np.testing.assert_array_equal(unpack_bits(neg_w, engine.length), neg_b)


class TestConvolutionEquivalence:
    @pytest.mark.parametrize("factory", [new_sc_engine, old_sc_engine])
    def test_backends_produce_identical_maps(self, factory):
        # The packed convolution against the per-filter byte-per-bit reference.
        rng = np.random.default_rng(13)
        images = rng.random((2, 9, 9))
        kernels = rng.uniform(-1.0, 1.0, (4, 3, 3))
        result = StochasticConv2D(
            kernels, engine=factory(5, seed=2), padding=1, soft_threshold=0.02
        ).forward(images)
        reference = factory(5, seed=2)
        pos, neg = sc_oracle.dot_filters(
            reference, extract_patches(images, (3, 3), 1, 1), kernels.reshape(4, 9)
        )
        sign = np.where(
            np.abs(pos - neg) < 0.02 * reference.length, 0, np.sign(pos - neg)
        )
        np.testing.assert_array_equal(result.positive_count, patches_to_map(pos, (9, 9)))
        np.testing.assert_array_equal(result.negative_count, patches_to_map(neg, (9, 9)))
        np.testing.assert_array_equal(result.sign, patches_to_map(sign, (9, 9)))


class TestEvaluatorEquivalence:
    def test_table1_mse_identical_across_backends(self):
        # The packed sweep against an AND/sum sweep over byte-per-bit streams.
        from repro.eval.table1 import multiplier_mse
        from repro.rng.sng import sng_pair

        n = 16
        values = np.arange(n + 1) / n
        for scheme in ("shared_lfsr", "ramp_low_discrepancy"):
            sng_x, sng_y = sng_pair(scheme, 4, seed=1)
            x_bits = sng_x.generate_bits(values, n)
            y_bits = sng_y.generate_bits(values, n)
            estimates = (x_bits[:, np.newaxis] & y_bits[np.newaxis]).sum(-1) / n
            expected = float(np.mean((estimates - np.outer(values, values)) ** 2))
            assert multiplier_mse(scheme, 4) == expected

    def test_table2_mse_identical_across_backends(self):
        # Both sweep modes against the byte-per-bit element adders.
        from repro.eval.table2 import _data_generators, _select_bits, adder_mse

        n = 16
        values = np.arange(n + 1) / n
        for config in ("old_random_lfsr", "old_lfsr_tff", "new_tff"):
            sng_x, sng_y = _data_generators(config, 4, 1)
            x_all, y_all = np.broadcast_arrays(
                sng_x.generate_bits(values, n)[:, np.newaxis],
                sng_y.generate_bits(values, n)[np.newaxis],
            )
            if config == "new_tff":
                sums = tff_add(np.ascontiguousarray(x_all), np.ascontiguousarray(y_all))
            else:
                sums = mux_add(x_all, y_all, _select_bits(config, 4, n, 1))
            estimates = np.asarray(sums).sum(-1) / n
            exact = 0.5 * (values[:, np.newaxis] + values[np.newaxis])
            expected = float(np.mean((estimates - exact) ** 2))
            for mode in (None, "streams"):
                assert adder_mse(config, 4, mode=mode) == expected
