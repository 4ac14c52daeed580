"""Functional tests of the gate-level circuit generators.

Every builder is verified against its behavioural reference: the stochastic
elements against :mod:`repro.sc`, the binary elements against plain integer
arithmetic.  This is the evidence that the netlists costed in Table 3 compute
the same functions as the models used for the accuracy results.
"""

import numpy as np
import pytest

from repro.rng import LFSR, MAXIMAL_TAPS
from repro.sc import tff_add
from repro.netlist import (
    BUILDER_CATALOG,
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
    lint,
    simulate,
)


def int_to_bits(value: int, bits: int) -> list[int]:
    return [(value >> i) & 1 for i in range(bits)]


def bits_to_int(bits: list[int]) -> int:
    return sum(int(b) << i for i, b in enumerate(bits))


class TestStochasticElementNetlists:
    def test_and_multiplier(self):
        net = build_and_multiplier()
        result = simulate(net, {"x": [1, 1, 0, 0], "y": [1, 0, 1, 0]})
        np.testing.assert_array_equal(result.waveform("z"), [1, 0, 0, 0])

    def test_mux_adder(self):
        net = build_mux_adder()
        result = simulate(
            net, {"x": [1, 1, 0, 0], "y": [0, 1, 1, 0], "sel": [0, 1, 0, 1]}
        )
        np.testing.assert_array_equal(result.waveform("z"), [1, 1, 0, 0])

    def test_tff_adder_matches_functional_model(self):
        rng = np.random.default_rng(0)
        x = rng.integers(0, 2, 64).astype(np.uint8)
        y = rng.integers(0, 2, 64).astype(np.uint8)
        net = build_tff_adder(initial_state=0)
        result = simulate(net, {"x": x, "y": y})
        expected = np.asarray(tff_add(x, y, initial_state=0))
        np.testing.assert_array_equal(result.waveform("z"), expected)

    def test_tff_adder_paper_example(self):
        x = [int(c) for c in "01100011010101111000"]
        y = [int(c) for c in "10111111010101111111"]
        net = build_tff_adder()
        result = simulate(net, {"x": x, "y": y})
        assert int(result.waveform("z").sum()) == 13

    def test_adder_tree_tff_counts(self):
        # 4 all-ones inputs through a depth-2 TFF tree: output stays all-ones.
        net = build_adder_tree(4, adder="tff")
        stim = {f"in{i}": [1] * 16 for i in range(4)}
        result = simulate(net, stim)
        assert int(result.waveform("sum").sum()) == 16

    def test_adder_tree_mux_has_select_inputs(self):
        net = build_adder_tree(4, adder="mux")
        selects = [n for n in net.primary_inputs if n.startswith("sel")]
        assert len(selects) == 3  # one per tree node

    def test_adder_tree_rejects_bad_args(self):
        with pytest.raises(ValueError):
            build_adder_tree(1)
        with pytest.raises(ValueError):
            build_adder_tree(4, adder="carry")

    def test_counter_counts_ones(self):
        net = build_counter(4)
        enable = [1, 1, 0, 1, 1, 1, 0, 0, 1, 1]
        result = simulate(net, {"enable": enable}, record=[f"count{i}" for i in range(4)])
        final = bits_to_int([result.waveform(f"count{i}")[-1] for i in range(4)])
        # The count visible at the last cycle reflects all ones before it.
        assert final == sum(enable[:-1])

    def test_counter_rejects_zero_bits(self):
        with pytest.raises(ValueError):
            build_counter(0)

    def test_comparator(self):
        net = build_comparator(4)
        cases = [(5, 3, 1), (3, 5, 0), (7, 7, 0), (0, 0, 0), (15, 14, 1)]
        for a, b, expected in cases:
            stim = {}
            for i in range(4):
                stim[f"a{i}"] = [int_to_bits(a, 4)[i]]
                stim[f"b{i}"] = [int_to_bits(b, 4)[i]]
            result = simulate(net, stim)
            assert result.waveform("gt")[0] == expected, (a, b)

    def test_comparator_rejects_zero_bits(self):
        with pytest.raises(ValueError):
            build_comparator(0)

    def test_lfsr_netlist_matches_software_model(self):
        bits = 4
        net = build_lfsr(bits, MAXIMAL_TAPS[bits])
        cycles = 20
        result = simulate(net, {}, cycles=cycles, record=[f"state{i}" for i in range(bits)])
        hardware_states = [
            bits_to_int([int(result.waveform(f"state{i}")[t]) for i in range(bits)])
            for t in range(cycles)
        ]
        software = LFSR(bits, seed=1)
        expected = [int(s) for s in software.states(cycles)]
        assert hardware_states == expected

    @pytest.mark.parametrize("taps", [(9,), (0,), (4, 5)])
    def test_lfsr_rejects_out_of_range_taps(self, taps):
        # The builder promises cycle-equivalence with the software LFSR, so
        # it rejects exactly the taps LFSR rejects (a tap outside [1, bits]
        # would otherwise be silently ignored); build_sng inherits the check.
        with pytest.raises(ValueError, match=r"tap positions must lie in \[1, 4\]"):
            LFSR(4, taps=taps)
        with pytest.raises(ValueError, match=r"tap positions must lie in \[1, 4\]"):
            build_lfsr(4, taps)
        with pytest.raises(ValueError, match=r"tap positions must lie in \[1, 4\]"):
            build_sng(4, taps)

    def test_sng_stream_density_tracks_value(self):
        bits = 4
        net = build_sng(bits, MAXIMAL_TAPS[bits])
        period = (1 << bits) - 1
        for value in (3, 8, 12):
            stim = {f"value{i}": [int_to_bits(value, bits)[i]] * period for i in range(bits)}
            result = simulate(net, stim)
            ones = int(result.waveform("stream").sum())
            # Over one full LFSR period the comparator fires `value` times
            # (every state 1..2^bits-1 below the threshold appears once).
            assert abs(ones - value) <= 1

    def test_sc_dot_product_sign(self):
        taps, counter_bits, n = 4, 6, 32
        net = build_sc_dot_product(taps, counter_bits, adder="tff")
        rng = np.random.default_rng(1)
        x = rng.integers(0, 2, size=(taps, n))
        # All-positive weights: wp = all-ones streams, wn = all-zeros.
        stim = {}
        for i in range(taps):
            stim[f"x{i}"] = x[i]
            stim[f"wp{i}"] = [1] * n
            stim[f"wn{i}"] = [0] * n
        result = simulate(net, stim)
        assert result.waveform("sign")[-1] == 1

        # All-negative weights flip the sign.
        for i in range(taps):
            stim[f"wp{i}"] = [0] * n
            stim[f"wn{i}"] = [1] * n
        result = simulate(net, stim)
        assert result.waveform("sign")[-1] == 0

    def test_sc_dot_product_structure(self):
        net = build_sc_dot_product(25, 8, adder="tff")
        counts = net.cell_counts()
        assert counts["AND2"] >= 50  # 25 taps x 2 paths of multipliers
        # 27 adders per 25-leaf tree (padding to even at each level), two
        # trees, plus two 8-bit counters built from TFFs.
        assert counts["TFF"] >= 2 * 27 + 16
        with pytest.raises(ValueError):
            build_sc_dot_product(1, 8)


class TestBinaryElementNetlists:
    @pytest.mark.parametrize("a,b", [(0, 0), (3, 5), (9, 6), (15, 15), (7, 8)])
    def test_ripple_adder(self, a, b):
        bits = 4
        net = build_ripple_adder(bits)
        stim = {}
        for i in range(bits):
            stim[f"a{i}"] = [int_to_bits(a, bits)[i]]
            stim[f"b{i}"] = [int_to_bits(b, bits)[i]]
        result = simulate(net, stim)
        total = bits_to_int([result.waveform(f"s{i}")[0] for i in range(bits)])
        total += int(result.waveform("cout")[0]) << bits
        assert total == a + b

    def test_ripple_adder_rejects_zero_bits(self):
        with pytest.raises(ValueError):
            build_ripple_adder(0)

    @pytest.mark.parametrize("a,b", [(0, 0), (1, 1), (3, 5), (7, 9), (15, 15), (12, 10)])
    def test_array_multiplier(self, a, b):
        bits = 4
        net = build_array_multiplier(bits)
        stim = {}
        for i in range(bits):
            stim[f"a{i}"] = [int_to_bits(a, bits)[i]]
            stim[f"b{i}"] = [int_to_bits(b, bits)[i]]
        result = simulate(net, stim)
        product = bits_to_int(
            [result.waveform(f"p{i}")[0] for i in range(2 * bits)]
        )
        assert product == a * b

    def test_array_multiplier_gate_count_scales_quadratically(self):
        small = len(build_array_multiplier(4).instances)
        large = len(build_array_multiplier(8).instances)
        assert large > 3 * small

    def test_binary_mac_accumulates(self):
        bits, acc_bits = 4, 10
        net = build_binary_mac(bits, acc_bits)
        a_values = [3, 5, 2]
        b_values = [4, 6, 7]
        stim = {}
        for i in range(bits):
            stim[f"mul_a{i}"] = [int_to_bits(v, bits)[i] for v in a_values] + [0]
            stim[f"mul_b{i}"] = [int_to_bits(v, bits)[i] for v in b_values] + [0]
        result = simulate(
            net, stim, record=[f"acc{i}" for i in range(acc_bits)]
        )
        final = bits_to_int([result.waveform(f"acc{i}")[-1] for i in range(acc_bits)])
        assert final == sum(a * b for a, b in zip(a_values, b_values))

    def test_binary_mac_rejects_narrow_accumulator(self):
        with pytest.raises(ValueError):
            build_binary_mac(4, 6)


class TestBuildersLintClean:
    """Every public builder must pass static analysis without errors.

    This rides alongside the behavioural differential tests above: a netlist
    that computes the right answer can still carry unobservable cells or
    dangling nets that silently inflate the Table 3 area/power numbers, so
    each catalog circuit is held to a zero-error, zero-warning lint report
    (info-level observations like constant carry ties are expected).
    """

    @pytest.mark.parametrize("name", sorted(BUILDER_CATALOG))
    def test_builder_is_lint_clean(self, name):
        report = lint(BUILDER_CATALOG[name]())
        problems = report.errors + report.warnings
        assert problems == [], report.format()

    def test_catalog_covers_every_builder(self):
        import repro.netlist.circuits as circuits

        public_builders = {
            attr[len("build_"):]
            for attr in circuits.__all__
            if attr.startswith("build_")
        }
        # Adder-tree and dot-product builders appear per adder style.
        covered = {name.split("_tff")[0].split("_mux")[0] for name in BUILDER_CATALOG}
        covered |= {name for name in BUILDER_CATALOG}
        for builder in public_builders:
            assert any(
                catalog_name == builder or catalog_name.startswith(builder)
                for catalog_name in covered
            ), f"builder {builder!r} missing from BUILDER_CATALOG"
