"""Differential suite: packed netlist simulation vs. the per-cycle oracle.

The simulator's claim is *bit-identical* ``SimulationResult`` contents --
toggles, waveforms and activity -- against the per-cycle cell loop in
``tests/netlist_oracle.py``, so every assertion here is exact equality.
Every circuit builder in :mod:`repro.netlist.circuits` is exercised, not
just the Table 3 engine: the stochastic datapath, the binary baselines, and
the register-feedback netlists (LFSR, SNG, MAC accumulator loop) that the
simulator resolves word-parallel via narrow feedback cores.
"""

import numpy as np
import pytest

import netlist_oracle
from repro.netlist import (
    CELL_LIBRARY,
    Netlist,
    build_adder_tree,
    build_and_multiplier,
    build_array_multiplier,
    build_binary_mac,
    build_comparator,
    build_counter,
    build_lfsr,
    build_mux_adder,
    build_ripple_adder,
    build_sc_dot_product,
    build_sng,
    build_tff_adder,
    simulate,
    simulate_batch,
)
from repro.rng import MAXIMAL_TAPS

#: Cycle counts exercising one partial word, exact words and multi-word
#: runs with a partial tail.
CYCLE_COUNTS = [1, 7, 64, 100, 129]

#: Every public circuit builder, with small-but-representative parameters.
ALL_BUILDERS = {
    "and_multiplier": lambda: build_and_multiplier(),
    "mux_adder": lambda: build_mux_adder(),
    "tff_adder": lambda: build_tff_adder(),
    "adder_tree_tff": lambda: build_adder_tree(5, adder="tff"),
    "adder_tree_mux": lambda: build_adder_tree(4, adder="mux"),
    "counter": lambda: build_counter(4),
    "comparator": lambda: build_comparator(3),
    "lfsr": lambda: build_lfsr(5, MAXIMAL_TAPS[5]),
    "sng": lambda: build_sng(4, MAXIMAL_TAPS[4]),
    "sc_dot_product_tff": lambda: build_sc_dot_product(4, 5, adder="tff"),
    "sc_dot_product_mux": lambda: build_sc_dot_product(4, 5, adder="mux"),
    "ripple_adder": lambda: build_ripple_adder(4),
    "array_multiplier": lambda: build_array_multiplier(3),
    "binary_mac": lambda: build_binary_mac(3, 8),
}


def random_stimulus(netlist, cycles, seed=0):
    rng = np.random.default_rng(seed)
    return {
        net: rng.integers(0, 2, cycles).astype(np.uint8)
        for net in netlist.primary_inputs
    }


def assert_matches_oracle(netlist, stimulus, cycles=None, record=None):
    reference = netlist_oracle.simulate(
        netlist, stimulus, cycles=cycles, record=record
    )
    packed = simulate(netlist, stimulus, cycles=cycles, record=record)
    assert packed.cycles == reference.cycles
    assert packed.toggles == reference.toggles
    assert set(packed.waveforms) == set(reference.waveforms)
    for net in reference.waveforms:
        np.testing.assert_array_equal(
            packed.waveforms[net], reference.waveforms[net], err_msg=net
        )
        assert packed.waveforms[net].dtype == np.uint8
    assert packed.total_toggles() == reference.total_toggles()
    assert packed.average_activity() == reference.average_activity()
    return packed


class TestCellWordLogic:
    """Every combinational cell's word_logic against its scalar logic."""

    def test_library_has_every_word_kernel(self):
        # The simulator has no per-cycle fallback: it needs word_logic on
        # every cell (and logic to step feedback cores).  Cells reach a
        # netlist only through CELL_LIBRARY, so this pins the invariant.
        for name, ctype in CELL_LIBRARY.items():
            assert ctype.logic is not None, name
            assert ctype.word_logic is not None, name

    @pytest.mark.parametrize(
        "name", [n for n, c in CELL_LIBRARY.items() if not c.sequential]
    )
    @pytest.mark.parametrize("cycles", [1, 63, 130])
    def test_cell(self, name, cycles):
        ctype = CELL_LIBRARY[name]
        net = Netlist(f"one_{name.lower()}")
        inputs = [net.add_input(f"i{k}") for k in range(len(ctype.inputs))]
        outputs = net.add_cell(name, inputs)
        for out in outputs:
            net.add_output(out)
        assert_matches_oracle(net, random_stimulus(net, cycles, seed=cycles))

    @pytest.mark.parametrize("name", ["DFF", "TFF"])
    @pytest.mark.parametrize("initial_state", [0, 1])
    def test_sequential_cell(self, name, initial_state):
        net = Netlist(f"one_{name.lower()}")
        d = net.add_input("d")
        (q,) = net.add_cell(name, [d], outputs=["q"], initial_state=initial_state)
        net.add_output(q)
        assert_matches_oracle(net, random_stimulus(net, 100))


class TestTable3Circuits:
    @pytest.mark.parametrize("cycles", CYCLE_COUNTS)
    def test_tff_adder(self, cycles):
        net = build_tff_adder()
        assert_matches_oracle(net, random_stimulus(net, cycles, seed=cycles))

    @pytest.mark.parametrize("adder", ["tff", "mux"])
    @pytest.mark.parametrize("leaves", [3, 4, 5, 8])
    def test_adder_trees(self, adder, leaves):
        net = build_adder_tree(leaves, adder=adder)
        assert_matches_oracle(net, random_stimulus(net, 100, seed=leaves))

    def test_counter(self):
        net = build_counter(5)
        assert_matches_oracle(
            net,
            random_stimulus(net, 130),
            record=[f"count{i}" for i in range(5)],
        )

    @pytest.mark.parametrize("adder", ["tff", "mux"])
    def test_sc_dot_product_engine(self, adder):
        # The Table 3 activity circuit: multipliers, two trees, two counters
        # and the sign comparator, over a non-word-aligned cycle count.
        net = build_sc_dot_product(9, 6, adder=adder)
        assert_matches_oracle(net, random_stimulus(net, 100, seed=3))

    def test_binary_baseline(self):
        for net, cycles in (
            (build_ripple_adder(4), 20),
            (build_array_multiplier(4), 20),
            (build_binary_mac(4, 10), 40),
        ):
            assert_matches_oracle(net, random_stimulus(net, cycles))


class TestEveryBuilder:
    """Differential equivalence over the full builder catalogue.

    Waveforms are recorded for *every* driven net (not just the primary
    outputs), so the comparison covers internal nodes, including the
    LFSR/SNG/MAC register loops the feedback-core resolution handles.
    """

    @pytest.mark.parametrize("name", sorted(ALL_BUILDERS))
    @pytest.mark.parametrize("cycles", [7, 100])
    def test_builder_bit_identical(self, name, cycles):
        netlist = ALL_BUILDERS[name]()
        stimulus = random_stimulus(netlist, cycles, seed=hash(name) % 1000)
        assert_matches_oracle(
            netlist, stimulus, cycles=cycles, record=netlist.nets
        )


class TestRegisterFeedbackResolution:
    """Cyclic register graphs (LFSR-style feedback) are resolved inside the
    packed run by narrow per-cycle core iteration, bit-identical to the
    oracle."""

    def test_lfsr(self):
        bits = 4
        net = build_lfsr(bits, MAXIMAL_TAPS[bits])
        assert_matches_oracle(
            net, {}, cycles=20, record=[f"state{i}" for i in range(bits)]
        )

    def test_sng(self):
        bits = 4
        net = build_sng(bits, MAXIMAL_TAPS[bits])
        assert_matches_oracle(net, random_stimulus(net, 15))

    def test_register_self_loop(self):
        # A TFF toggling on its own inverted output: the smallest possible
        # feedback core (one instance with a self-edge through an inverter).
        net = Netlist("self_loop")
        (q,) = net.add_cell("TFF", ["nq"], outputs=["q"], initial_state=0)
        net.add_cell("INV", ["q"], outputs=["nq"])
        net.add_output(q)
        assert_matches_oracle(net, {}, cycles=37, record=["q", "nq"])

    def test_two_independent_cores(self):
        # Two disjoint feedback cores plus shared downstream logic: each SCC
        # must be resolved separately and the XOR of their outputs evaluated
        # word-parallel.
        net = Netlist("two_cores")
        for tag in ("a", "b"):
            (q,) = net.add_cell(
                "DFF", [f"{tag}_d"], outputs=[f"{tag}_q"],
                initial_state=1 if tag == "a" else 0,
            )
            net.add_cell("INV", [q], outputs=[f"{tag}_d"])
        (mix,) = net.add_cell("XOR2", ["a_q", "b_q"], outputs=["mix"])
        net.add_output(mix)
        assert_matches_oracle(net, {}, cycles=50, record=["a_q", "b_q", "mix"])

    def test_core_with_external_time_varying_input(self):
        # The MAC-style case: a register loop fed by a changing primary
        # input has no periodic shortcut and must be iterated per cycle.
        net = Netlist("accumulating")
        x = net.add_input("x")
        (q,) = net.add_cell("DFF", ["d"], outputs=["q"])
        net.add_cell("XOR2", [x, q], outputs=["d"])
        net.add_output(q)
        assert_matches_oracle(net, random_stimulus(net, 129), record=["q", "d"])


class TestPeriodWrapRegression:
    """Runs longer than the register-core period must wrap the precomputed
    state sequence exactly as the oracle steps it -- including runs that end
    exactly on a period boundary or one cycle past it."""

    @pytest.mark.parametrize("bits", [3, 4])
    def test_lfsr_beyond_period(self, bits):
        period = (1 << bits) - 1  # maximal LFSR visits every non-zero state
        net = build_lfsr(bits, MAXIMAL_TAPS[bits])
        record = [f"state{i}" for i in range(bits)]
        for cycles in (period - 1, period, period + 1, 4 * period + 3):
            packed = assert_matches_oracle(net, {}, cycles=cycles, record=record)
            assert packed.cycles == cycles

    def test_lfsr_waveform_wraps_exactly(self):
        bits = 4
        period = (1 << bits) - 1
        net = build_lfsr(bits, MAXIMAL_TAPS[bits])
        record = [f"state{i}" for i in range(bits)]
        long = simulate(net, {}, cycles=3 * period + 5, record=record)
        short = simulate(net, {}, cycles=period, record=record)
        for net_name in record:
            reference = short.waveform(net_name)
            wave = long.waveform(net_name)
            for start in range(0, len(wave), period):
                chunk = wave[start:start + period]
                np.testing.assert_array_equal(chunk, reference[: len(chunk)])

    def test_sng_beyond_period(self):
        bits = 4
        period = (1 << bits) - 1
        net = build_sng(bits, MAXIMAL_TAPS[bits])
        cycles = 5 * period + 2
        assert_matches_oracle(net, random_stimulus(net, cycles, seed=9))

    def test_core_with_transient_before_period(self):
        # A register core whose state sequence has a non-trivial transient:
        # q starts at 0, latches OR(q, 1) = 1 and stays -- transient 1,
        # period 1.  The wrap must start after the transient, not at cycle 0.
        net = Netlist("transient")
        (q,) = net.add_cell("DFF", ["d"], outputs=["q"], initial_state=0)
        net.add_cell("OR2", [q, "1"], outputs=["d"])
        net.add_output(q)
        packed = assert_matches_oracle(net, {}, cycles=70, record=["q"])
        np.testing.assert_array_equal(
            packed.waveform("q"), [0] + [1] * 69
        )


class TestRecordValidation:
    def build_simple(self):
        net = Netlist("simple")
        a = net.add_input("a")
        (y,) = net.add_cell("INV", [a], outputs=["y"])
        net.add_output(y)
        return net

    def test_unknown_record_net_rejected(self):
        # A typo in `record` must fail loudly instead of silently returning
        # an all-zero waveform.
        net = self.build_simple()
        with pytest.raises(ValueError, match="ghost"):
            simulate(net, {"a": [0, 1]}, record=["y", "ghost"])

    def test_constant_nets_recordable(self):
        net = self.build_simple()
        result = assert_matches_oracle(net, {"a": [0, 1, 0]}, record=["1", "0"])
        np.testing.assert_array_equal(result.waveform("1"), [1, 1, 1])
        np.testing.assert_array_equal(result.waveform("0"), [0, 0, 0])

    def test_nonbinary_stimulus_normalized(self):
        # Any nonzero stimulus value counts as logic 1, exactly as in the
        # oracle (raw ints must never reach the scalar cell logic).
        net = self.build_simple()
        result = assert_matches_oracle(net, {"a": [0, 2, 0, 3]})
        np.testing.assert_array_equal(result.waveform("y"), [1, 0, 1, 0])
        assert result.toggles["y"] == 3

    def test_toggles_cover_all_nets_including_quiet_ones(self):
        # Nets that never toggle still get a zero entry (the power roll-up
        # iterates over instance outputs and expects complete coverage).
        net = Netlist("quiet")
        a = net.add_input("a")
        (y,) = net.add_cell("BUF", [a], outputs=["y"])
        net.add_output(y)
        result = assert_matches_oracle(net, {"a": [1, 1, 1, 1]})
        assert result.toggles == {"a": 0, "y": 0}

    # Bad stimulus and cycle counts are rejected where they enter, with an
    # error naming the culprit, through both entry points.
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_stimulus_rejected(self, bad):
        # `nan != 0` holds, so a NaN used to become logic 1 silently.
        net = self.build_simple()
        wave = np.array([0.0, bad, 0.0, 1.0])
        with pytest.raises(ValueError, match="'a'.*NaN or inf"):
            simulate(net, {"a": wave})
        with pytest.raises(ValueError, match="'a'.*NaN or inf"):
            simulate_batch(net, {"a": np.stack([wave, np.zeros(4)])})
        with pytest.raises(ValueError, match="'a'.*NaN or inf"):
            simulate_batch(net, {"a": wave}, batch=2)

    @pytest.mark.parametrize("cycles", [2.7, -3, "4", 2.0])
    def test_bad_cycles_rejected(self, cycles):
        # 2.7 used to run 2 cycles; -3 failed inside a word kernel without
        # naming `cycles`.
        net = self.build_simple()
        with pytest.raises(ValueError, match="cycles must be a non-negative integer"):
            simulate(net, {"a": [0, 1, 0, 1]}, cycles=cycles)
        with pytest.raises(ValueError, match="cycles must be a non-negative integer"):
            simulate_batch(net, {"a": np.zeros((2, 4))}, cycles=cycles)

    def test_numpy_and_zero_cycles_accepted(self):
        net = self.build_simple()
        result = simulate(net, {"a": [0, 1, 0, 1]}, cycles=np.int64(3))
        assert result.cycles == 3 and isinstance(result.cycles, int)
        np.testing.assert_array_equal(result.waveform("y"), [1, 0, 1])
        empty = simulate(net, {"a": [0, 1, 0, 1]}, cycles=0)
        assert empty.cycles == 0 and empty.waveform("y").shape == (0,)
        assert empty.toggles == {"a": 0, "y": 0}
        batched = simulate_batch(net, {"a": np.zeros((2, 4))}, cycles=np.uint8(0))
        assert batched.waveform("y").shape == (2, 0)
        np.testing.assert_array_equal(batched.toggles["y"], [0, 0])
