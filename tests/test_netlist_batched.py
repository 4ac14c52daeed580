"""Invariant suite for batched multi-trace netlist simulation.

The defining property of :func:`repro.netlist.simulator.simulate_batch` is
that a batch of ``K`` stimulus sets is *bit-identical* to ``K`` independent
runs of the per-cycle oracle (``tests/netlist_oracle.py``), and so is
:func:`~repro.netlist.simulator.simulate` on each trace.  Hypothesis drives
that equivalence over randomly generated circuits (including register
feedback loops), cycle counts that are deliberately not multiples of 64,
record subsets, and mixtures of per-trace and shared (1-D) stimulus.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import netlist_oracle
from repro.netlist import (
    Netlist,
    cell,
    build_sc_dot_product,
    build_sng,
    estimate_power,
    simulate,
    simulate_batch,
)
from repro.rng import MAXIMAL_TAPS

#: Combinational cells the random-circuit strategy draws from.
COMB_CELLS = ["INV", "BUF", "NAND2", "NOR2", "AND2", "OR2", "XOR2", "XNOR2",
              "MUX2", "HA", "FA", "CMP1"]
SEQ_CELLS = ["DFF", "TFF"]


@st.composite
def random_netlists(draw):
    """A random small netlist: comb DAG + registers, optionally with feedback.

    Register input nets are declared first and driven *after* the rest of
    the circuit exists, so a register's data input can (and often does)
    depend on its own output -- exactly the LFSR-style feedback cores the
    simulator resolves per cycle.
    """
    n_inputs = draw(st.integers(min_value=1, max_value=3))
    n_regs = draw(st.integers(min_value=0, max_value=3))
    n_comb = draw(st.integers(min_value=1, max_value=10))

    netlist = Netlist("random")
    pool = [netlist.add_input(f"i{k}") for k in range(n_inputs)] + ["0", "1"]
    reg_inputs = []
    for r in range(n_regs):
        reg_cell = draw(st.sampled_from(SEQ_CELLS))
        d_net = f"regin{r}"
        (q,) = netlist.add_cell(
            reg_cell, [d_net], outputs=[f"q{r}"],
            initial_state=draw(st.integers(0, 1)),
        )
        reg_inputs.append(d_net)
        pool.append(q)
    for _ in range(n_comb):
        cell_name = draw(st.sampled_from(COMB_CELLS))
        ctype = cell(cell_name)
        inputs = [draw(st.sampled_from(pool)) for _ in ctype.inputs]
        outputs = netlist.add_cell(cell_name, inputs)
        pool.extend(outputs)
    # Close the feedback loops: every register input is a buffered copy of
    # some existing net (possibly downstream of the register itself).
    for d_net in reg_inputs:
        source = draw(st.sampled_from(pool))
        netlist.add_cell("BUF", [source], outputs=[d_net])
    for net in draw(st.lists(st.sampled_from(pool), min_size=1, max_size=3)):
        netlist.add_output(net)
    return netlist


def batched_stimulus(netlist, batch, cycles, seed, share_some=False):
    """Random stimulus; with ``share_some`` every other input is 1-D (shared)."""
    rng = np.random.default_rng(seed)
    stimulus = {}
    for i, net in enumerate(netlist.primary_inputs):
        if share_some and i % 2 == 1:
            stimulus[net] = rng.integers(0, 2, cycles).astype(np.uint8)
        else:
            stimulus[net] = rng.integers(0, 2, (batch, cycles)).astype(np.uint8)
    return stimulus


def per_trace_stimulus(stimulus, k):
    return {
        net: (wave if wave.ndim == 1 else wave[k])
        for net, wave in stimulus.items()
    }


def assert_batch_equals_independent_runs(
    netlist, stimulus, batch, cycles=None, record=None
):
    """The core invariant: every trace of the batch, and ``simulate`` on that
    trace alone, equal an independent oracle run."""
    batched = simulate_batch(
        netlist, stimulus, cycles=cycles, record=record, batch=batch,
    )
    assert batched.batch == batch
    for k in range(batch):
        trace_stimulus = per_trace_stimulus(stimulus, k)
        reference = netlist_oracle.simulate(
            netlist, trace_stimulus, cycles=cycles, record=record,
        )
        single = simulate(netlist, trace_stimulus, cycles=cycles, record=record)
        for label, result in (("batch", batched.trace(k)), ("simulate", single)):
            assert result.cycles == reference.cycles
            assert result.toggles == reference.toggles, (label, k)
            assert set(result.waveforms) == set(reference.waveforms)
            for net in reference.waveforms:
                np.testing.assert_array_equal(
                    result.waveforms[net], reference.waveforms[net],
                    err_msg=f"{label}/{k}/{net}",
                )
    return batched


class TestHypothesisInvariants:
    @given(
        netlist=random_netlists(),
        batch=st.integers(min_value=1, max_value=4),
        cycles=st.integers(min_value=1, max_value=150),
        seed=st.integers(min_value=0, max_value=2**16),
        share=st.booleans(),
    )
    @settings(max_examples=25, deadline=None)
    def test_batch_identical_to_independent_runs(
        self, netlist, batch, cycles, seed, share
    ):
        stimulus = batched_stimulus(netlist, batch, cycles, seed, share_some=share)
        assert_batch_equals_independent_runs(
            netlist, stimulus, batch, cycles=cycles, record=netlist.nets
        )

    @given(
        batch=st.integers(min_value=1, max_value=3),
        cycles=st.sampled_from([1, 63, 65, 100, 127, 130]),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=10, deadline=None)
    def test_sng_feedback_core_batched(self, batch, cycles, seed):
        # An LFSR-driven SNG: the feedback core is shared by every trace
        # while the value inputs vary per trace.
        netlist = build_sng(4, MAXIMAL_TAPS[4])
        stimulus = batched_stimulus(netlist, batch, cycles, seed)
        assert_batch_equals_independent_runs(netlist, stimulus, batch)

    @given(
        subset_seed=st.integers(min_value=0, max_value=2**16),
        cycles=st.sampled_from([66, 100]),
    )
    @settings(max_examples=10, deadline=None)
    def test_record_subsets(self, subset_seed, cycles):
        netlist = build_sc_dot_product(3, 4, adder="tff")
        rng = np.random.default_rng(subset_seed)
        nets = netlist.nets
        record = list(
            rng.choice(nets, size=rng.integers(1, len(nets)), replace=False)
        )
        stimulus = batched_stimulus(netlist, 2, cycles, subset_seed)
        batched = assert_batch_equals_independent_runs(
            netlist, stimulus, 2, record=record
        )
        assert set(batched.waveforms) == set(record)
        # Toggle counts always cover every driven net, regardless of record.
        assert set(batched.toggles) == set(nets)


class TestBatchApi:
    def build_simple(self):
        netlist = Netlist("simple")
        a = netlist.add_input("a")
        (y,) = netlist.add_cell("INV", [a], outputs=["y"])
        netlist.add_output(y)
        return netlist

    def test_inconsistent_batch_sizes_rejected(self):
        netlist = Netlist("two_inputs")
        netlist.add_input("a")
        netlist.add_input("b")
        netlist.add_cell("AND2", ["a", "b"], outputs=["y"])
        netlist.add_output("y")
        with pytest.raises(ValueError, match="batch"):
            simulate_batch(
                netlist,
                {"a": np.zeros((2, 8)), "b": np.zeros((3, 8))},
            )

    def test_batch_size_required_when_not_inferrable(self):
        netlist = self.build_simple()
        with pytest.raises(ValueError, match="batch"):
            simulate_batch(netlist, {"a": np.zeros(8)})

    def test_zero_trace_stimulus_rejected(self):
        netlist = self.build_simple()
        with pytest.raises(ValueError, match="at least one trace"):
            simulate_batch(netlist, {"a": np.zeros((0, 8))})

    def test_explicit_batch_with_shared_stimulus(self):
        netlist = self.build_simple()
        result = simulate_batch(netlist, {"a": [0, 1, 0, 1]}, batch=3)
        assert result.batch == 3
        assert result.waveform("y").shape == (3, 4)
        for k in range(3):
            np.testing.assert_array_equal(result.waveform("y")[k], [1, 0, 1, 0])
        np.testing.assert_array_equal(result.toggles["y"], [3, 3, 3])

    def test_explicit_batch_contradiction_rejected(self):
        netlist = self.build_simple()
        with pytest.raises(ValueError, match="batch"):
            simulate_batch(netlist, {"a": np.zeros((2, 8))}, batch=4)

    def test_3d_stimulus_rejected(self):
        netlist = self.build_simple()
        with pytest.raises(ValueError, match="shape"):
            simulate_batch(netlist, {"a": np.zeros((2, 2, 8))})

    def test_unknown_record_net_rejected(self):
        netlist = self.build_simple()
        with pytest.raises(ValueError, match="ghost"):
            simulate_batch(
                netlist, {"a": np.zeros((2, 8))}, record=["y", "ghost"]
            )

    def test_single_simulate_rejects_stacked_stimulus(self):
        netlist = self.build_simple()
        with pytest.raises(ValueError, match="simulate_batch"):
            simulate(netlist, {"a": np.zeros((2, 8))})

    def test_input_less_netlist_with_explicit_batch(self):
        netlist = Netlist("free_running")
        (q,) = netlist.add_cell("TFF", ["1"], outputs=["q"])
        netlist.add_output(q)
        result = simulate_batch(netlist, {}, cycles=5, batch=2)
        for k in range(2):
            np.testing.assert_array_equal(result.waveform("q")[k], [0, 1, 0, 1, 0])


class TestBatchAggregation:
    def test_aggregates_match_per_trace_results(self):
        netlist = build_sc_dot_product(3, 4, adder="tff")
        stimulus = batched_stimulus(netlist, 4, 100, seed=5)
        batched = simulate_batch(netlist, stimulus)
        singles = [
            netlist_oracle.simulate(netlist, per_trace_stimulus(stimulus, k))
            for k in range(4)
        ]
        assert batched.total_toggles() == sum(s.total_toggles() for s in singles)
        assert batched.average_activity() == pytest.approx(
            np.mean([s.average_activity() for s in singles])
        )
        np.testing.assert_allclose(
            batched.average_activity_per_trace(),
            [s.average_activity() for s in singles],
        )
        for net in list(batched.toggles)[:5]:
            assert batched.activity(net) == pytest.approx(
                np.mean([s.activity(net) for s in singles])
            )

    def test_estimate_power_accepts_batched_result(self):
        netlist = build_sc_dot_product(3, 4, adder="tff")
        stimulus = batched_stimulus(netlist, 3, 100, seed=11)
        batched = simulate_batch(netlist, stimulus)
        report = estimate_power(netlist, 500.0, simulation=batched)
        assert report.activity == pytest.approx(batched.average_activity())
        per_trace = [
            estimate_power(
                netlist, 500.0,
                simulation=netlist_oracle.simulate(
                    netlist, per_trace_stimulus(stimulus, k)
                ),
            ).dynamic_mw
            for k in range(3)
        ]
        assert report.dynamic_mw == pytest.approx(np.mean(per_trace))

def _feedback_counter_netlist():
    """A non-autonomous register feedback core: a gated toggle accumulator.

    The TFF's trigger is ``AND(enable, XOR(q, x))`` -- its next state depends
    on its own output *and* two per-trace primary inputs, so the batched
    packed simulator must iterate the core per cycle (no closed form, no
    shared-input broadcast, no periodic wrap).
    """
    netlist = Netlist("feedback-counter")
    enable = netlist.add_input("enable")
    x = netlist.add_input("x")
    (q,) = netlist.add_cell("TFF", ["t"], outputs=["q"], initial_state=1)
    (mix,) = netlist.add_cell("XOR2", [q, x], outputs=["mix"])
    netlist.add_cell("AND2", [enable, mix], outputs=["t"])
    netlist.add_output(q)
    return netlist


class TestPerTraceFeedbackCores:
    """Per-trace feedback cores iterated once per trace, bit-identical to
    independent per-trace oracle runs."""

    def test_per_trace_core_path_is_used_and_exact(self, monkeypatch):
        import repro.netlist.simulator as simulator_module

        netlist = _feedback_counter_netlist()
        stimulus = batched_stimulus(netlist, 5, 130, seed=3)
        calls = {"count": 0}
        original = simulator_module._iterate_core

        def spy(*args, **kwargs):
            calls["count"] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(simulator_module, "_iterate_core", spy)
        simulate_batch(netlist, stimulus, record=netlist.nets, batch=5)
        # Per-trace stimulus: the core is iterated once for each of the 5 traces.
        assert calls["count"] == 5, "per-trace core resolution was not exercised"
        monkeypatch.undo()
        assert_batch_equals_independent_runs(
            netlist, stimulus, 5, record=netlist.nets
        )

    @given(
        batch=st.integers(min_value=1, max_value=70),
        cycles=st.sampled_from([1, 63, 64, 65, 100]),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=10, deadline=None)
    def test_hypothesis_batch_sizes_cross_word_boundaries(self, batch, cycles, seed):
        # Batches above 64 traces span more than one packed word per cycle
        # in the batched waveforms around the core.
        netlist = _feedback_counter_netlist()
        stimulus = batched_stimulus(netlist, batch, cycles, seed)
        batched = simulate_batch(netlist, stimulus)
        for k in range(0, batch, max(1, batch // 7)):
            single = netlist_oracle.simulate(netlist, per_trace_stimulus(stimulus, k))
            assert batched.trace(k).toggles == single.toggles

    def test_shared_stimulus_core_still_resolved_once(self):
        # All-shared stimulus: the core is identical for every trace, which
        # must keep taking the broadcast path (and stay exact).
        netlist = _feedback_counter_netlist()
        rng = np.random.default_rng(4)
        stimulus = {
            "enable": rng.integers(0, 2, 100).astype(np.uint8),
            "x": rng.integers(0, 2, 100).astype(np.uint8),
        }
        batched = simulate_batch(netlist, stimulus, batch=3)
        single = netlist_oracle.simulate(netlist, stimulus)
        for k in range(3):
            assert batched.trace(k).toggles == single.toggles
