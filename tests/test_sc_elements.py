"""Tests for stochastic arithmetic elements: the multiplier, the TFF, adders,
converters.  These cover the behaviours of Figs. 1 and 2 of the paper,
including the worked adder examples."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.bitstream import Bitstream
from repro.sc import (
    AdderTree,
    MuxAdder,
    TffAdder,
    and_multiply,
    count_ones,
    mux_add,
    sign_from_counts,
    stochastic_to_binary,
    tff_add,
    toggle_states,
)

bit_arrays = st.lists(st.integers(0, 1), min_size=2, max_size=64).map(
    lambda bits: np.array(bits, dtype=np.uint8)
)


class TestMultipliers:
    def test_and_gate_exact_on_independent_grids(self):
        x = Bitstream("11110000")  # 0.5
        y = Bitstream("11001100")  # 0.5
        z = and_multiply(x, y)
        assert z.value == pytest.approx(0.25)

    def test_array_inputs(self):
        x = np.random.default_rng(0).integers(0, 2, size=(3, 16)).astype(np.uint8)
        y = np.random.default_rng(1).integers(0, 2, size=(3, 16)).astype(np.uint8)
        z = and_multiply(x, y)
        assert z.shape == (3, 16)
        np.testing.assert_array_equal(z, x & y)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            and_multiply(Bitstream("01"), Bitstream("011"))

    @given(bit_arrays, st.integers(0, 1))
    def test_multiplying_by_all_ones_is_identity(self, bits, _):
        ones = np.ones_like(bits)
        np.testing.assert_array_equal(and_multiply(bits, ones), bits)


class TestToggleFlipFlop:
    def test_states_parity(self):
        trigger = np.array([1, 0, 1, 1, 0], dtype=np.uint8)
        states = toggle_states(trigger, initial_state=0)
        np.testing.assert_array_equal(states, [0, 1, 1, 0, 1])

    def test_initial_state_one(self):
        trigger = np.array([1, 1], dtype=np.uint8)
        np.testing.assert_array_equal(toggle_states(trigger, 1), [1, 0])

    def test_invalid_initial_state(self):
        with pytest.raises(ValueError):
            toggle_states(np.array([1], dtype=np.uint8), 2)

    @given(bit_arrays)
    def test_tff_output_toggles_only_on_trigger_ones(self, trigger):
        # The observed TFF state changes between cycle t-1 and t exactly when
        # the trigger was 1 at cycle t-1 (the toggle takes effect next cycle).
        out = toggle_states(trigger, initial_state=0).astype(int)
        changes = np.abs(np.diff(out))
        np.testing.assert_array_equal(changes, trigger[:-1].astype(int))


class TestTffHalver:
    """Fig. 2a's halver is the TFF adder with one input tied to zero."""

    def test_halves_exactly(self):
        # Fig. 2a: p_C = p_A / 2 with no additional random input.
        stream = Bitstream("11110000")
        halved = tff_add(stream, Bitstream("00000000"), initial_state=1)
        assert halved.ones == 2

    def test_rounding_direction(self):
        odd = Bitstream("11100000")  # 3 ones
        zero = Bitstream("00000000")
        assert tff_add(odd, zero, initial_state=1).ones == 2  # ceil(3/2)
        assert tff_add(odd, zero, initial_state=0).ones == 1  # floor(3/2)

    @given(bit_arrays, st.integers(0, 1))
    def test_exact_halving_property(self, bits, s0):
        ones = int(bits.sum())
        result = int(tff_add(bits, np.zeros_like(bits), s0).sum())
        # ceil for s0=1, floor for s0=0
        expected = (ones + (1 if s0 else 0)) // 2
        assert result == expected


class TestTffAdder:
    def test_paper_example_section_iii(self):
        # The worked example from Section III: Z = 0.5 * (1/2 + 4/5) = 13/20.
        x = Bitstream("0110 0011 0101 0111 1000")
        y = Bitstream("1011 1111 0101 0111 1111")
        z = tff_add(x, y, initial_state=0)
        assert z == Bitstream("0110 1011 0101 0111 1101")
        assert z.ones == 13

    def test_fig2c_initial_state_rounding(self):
        # Fig. 2c: X = 3/8, Y = 1/4, exact sum/2 = 5/16 not representable in 8 bits.
        x = Bitstream("0100 1010")
        y = Bitstream("0010 0010")
        z0 = tff_add(x, y, initial_state=0)
        z1 = tff_add(x, y, initial_state=1)
        assert z0 == Bitstream("0010 0010")  # rounds down to 1/4
        assert z1 == Bitstream("0100 1010")  # rounds up to 3/8
        assert z0.ones == 2 and z1.ones == 3

    def test_exact_when_representable(self):
        x = Bitstream.from_exact(0.5, 16)
        y = Bitstream.from_exact(0.25, 16)
        z = tff_add(x, y)
        assert z.value == pytest.approx(0.375)

    def test_class_interface(self):
        adder = TffAdder(initial_state=1)
        assert "TffAdder" in repr(adder)
        with pytest.raises(ValueError):
            TffAdder(initial_state=3)

    def test_insensitive_to_autocorrelation(self):
        # Ramp-converted (maximally auto-correlated) inputs still add exactly.
        from repro.rng import ramp_compare_stream

        x = ramp_compare_stream(0.75, 64)
        y = ramp_compare_stream(0.25, 64)
        z = np.asarray(tff_add(x, y))
        assert z.sum() == 32

    @given(bit_arrays, st.data(), st.integers(0, 1))
    @settings(max_examples=200, deadline=None)
    def test_ones_count_exact_up_to_rounding(self, x, data, s0):
        y = data.draw(
            st.lists(st.integers(0, 1), min_size=len(x), max_size=len(x)).map(
                lambda b: np.array(b, dtype=np.uint8)
            )
        )
        z = np.asarray(tff_add(x, y, initial_state=s0))
        total = int(x.sum() + y.sum())
        expected = (total + s0) // 2
        assert int(z.sum()) == expected

    def test_batched_inputs(self):
        rng = np.random.default_rng(0)
        x = rng.integers(0, 2, size=(4, 5, 32)).astype(np.uint8)
        y = rng.integers(0, 2, size=(4, 5, 32)).astype(np.uint8)
        z = tff_add(x, y)
        assert z.shape == (4, 5, 32)
        expected = (x.sum(axis=-1) + y.sum(axis=-1)) // 2
        np.testing.assert_array_equal(z.sum(axis=-1), expected)


class TestMuxAdder:
    def test_scaled_sum_with_explicit_select(self):
        x = Bitstream("11111111")
        y = Bitstream("00000000")
        select = Bitstream("01010101")
        z = mux_add(x, y, select)
        assert z.value == pytest.approx(0.5)

    def test_toggle_select_deterministic(self):
        adder = MuxAdder(toggle_select=True)
        np.testing.assert_array_equal(adder.select_bits(6), [0, 1, 0, 1, 0, 1])

    def test_random_select_value_near_half(self):
        adder = MuxAdder(seed=7)
        select = adder.select_bits(4096)
        assert abs(select.mean() - 0.5) < 0.05

    def test_call_produces_scaled_sum_in_expectation(self):
        adder = MuxAdder(seed=11)
        x = Bitstream.from_random(0.8, 4096, rng=1)
        y = Bitstream.from_random(0.2, 4096, rng=2)
        z = adder(x, y)
        assert z.value == pytest.approx(0.5, abs=0.05)

    def test_repr(self):
        assert "toggle_select" in repr(MuxAdder(toggle_select=True))
        assert "MuxAdder" in repr(MuxAdder())


class TestAdderTree:
    def test_depth_and_scale(self):
        tree = AdderTree()
        assert tree.depth(2) == 1
        assert tree.depth(25) == 5
        assert tree.scale_factor(25) == pytest.approx(1 / 32)
        with pytest.raises(ValueError):
            tree.depth(0)

    def test_exact_sum_with_tff_adders(self):
        # 4 streams of value 8/16 each: tree output = 32/(16*4) = 0.5 exactly.
        streams = [Bitstream(np.roll(Bitstream.from_exact(0.5, 16).bits, i)) for i in range(4)]
        tree = AdderTree(TffAdder)
        result = tree.reduce(streams)
        assert result.value == pytest.approx(0.5)

    def test_padding_with_zero_streams(self):
        streams = [Bitstream.from_exact(1.0, 16)] * 3
        tree = AdderTree(TffAdder)
        result = tree.reduce(streams)
        # 3 ones-streams through a depth-2 tree: (1+1+1+0)/4 = 0.75
        assert result.value == pytest.approx(0.75)

    def test_stacked_array_input(self):
        rng = np.random.default_rng(0)
        stacked = rng.integers(0, 2, size=(7, 5, 32)).astype(np.uint8)
        tree = AdderTree(TffAdder)
        result = tree.reduce(stacked)
        assert result.shape == (7, 32)

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            AdderTree().reduce([])
        with pytest.raises(ValueError):
            AdderTree().reduce(np.zeros(4, dtype=np.uint8))

    @given(
        st.lists(
            st.floats(min_value=0.0, max_value=1.0), min_size=2, max_size=16
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_tff_tree_error_bounded_by_depth(self, values):
        length = 64
        streams = [Bitstream.from_exact(v, length).permute(rng=i) for i, v in enumerate(values)]
        tree = AdderTree(TffAdder)
        result = tree.reduce(streams)
        exact_counts = sum(s.ones for s in streams)
        depth = tree.depth(len(values))
        expected = exact_counts / (2 ** depth)
        # Each adder level introduces at most one LSB of rounding error.
        assert abs(result.ones - expected) <= depth


class TestConverters:
    def test_count_ones_batched(self):
        bits = np.array([[1, 1, 0, 0], [1, 0, 0, 0]], dtype=np.uint8)
        np.testing.assert_array_equal(count_ones(bits), [2, 1])

    def test_stochastic_to_binary_encodings(self):
        stream = Bitstream("1100")
        assert stochastic_to_binary(stream) == pytest.approx(0.5)
        assert stochastic_to_binary(stream, "bipolar") == pytest.approx(0.0)
        with pytest.raises(ValueError):
            stochastic_to_binary(stream, "ternary")

    def test_sign_from_counts(self):
        pos = np.array([5, 2, 3])
        neg = np.array([2, 2, 7])
        np.testing.assert_array_equal(sign_from_counts(pos, neg), [1, 0, -1])
