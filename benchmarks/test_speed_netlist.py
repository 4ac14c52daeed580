"""Benchmark: packed netlist simulator and bipolar engine vs. their references.

Times the paths the packed-word kernels accelerate -- the
activity-capturing netlist simulation behind the Table 3 power numbers and
the LFSR/SNG netlists (resolved word-parallel through narrow feedback cores
with periodic wrapping), each against the per-cycle oracle in
``tests/netlist_oracle.py``; batched multi-trace simulation against one
packed run per trace; and the Section IV-B bipolar dot-product engine
against its byte-per-bit reference -- asserts each meets its speedup floor,
and writes a ``BENCH_netlist.json`` artifact so the speedup trajectory can
be tracked across commits, alongside ``BENCH_packed.json``.  The
``unpacked_seconds`` keys hold the reference timings.

Timings use best-of-``REPEATS`` wall-clock so a single scheduler hiccup on a
loaded CI machine cannot fail the regression assertion.
"""

import json
import time
from pathlib import Path

import numpy as np

import netlist_oracle
import sc_oracle
from repro.bitstream import bipolar_to_unipolar
from repro.netlist import build_sc_dot_product, build_sng, simulate, simulate_batch
from repro.rng import MAXIMAL_TAPS, ComparatorSNG, SobolSource, VanDerCorputSource
from repro.sc import BipolarDotProductEngine, BipolarDotProductResult, TffAdder

ARTIFACT = Path(__file__).resolve().parent.parent / "BENCH_netlist.json"
REPEATS = 3


def best_of(fn, repeats=REPEATS):
    """Best wall-clock of ``repeats`` runs, plus the last return value."""
    best, result = float("inf"), None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def test_packed_netlist_toggle_count_speedup():
    # The Table 3 activity circuit: one full stochastic dot-product engine
    # (25 taps, 9-bit counters) driven by a random bit-stream trace.
    taps, counter_bits, cycles = 25, 9, 1024
    netlist = build_sc_dot_product(taps, counter_bits, adder="tff")
    rng = np.random.default_rng(0)
    stimulus = {
        net: rng.integers(0, 2, cycles).astype(np.uint8)
        for net in netlist.primary_inputs
    }

    unpacked_s, unpacked = best_of(lambda: netlist_oracle.simulate(netlist, stimulus))
    packed_s, packed = best_of(lambda: simulate(netlist, stimulus))

    # Correctness first: the speedup claim is only meaningful bit-identically.
    assert packed.toggles == unpacked.toggles
    for net in unpacked.waveforms:
        np.testing.assert_array_equal(packed.waveforms[net], unpacked.waveforms[net])
    assert packed.average_activity() == unpacked.average_activity()

    speedup = unpacked_s / packed_s
    print(
        f"\nnetlist toggle count, {len(netlist.instances)} cells x {cycles} cycles: "
        f"cycle loop {unpacked_s * 1e3:.0f} ms, packed {packed_s * 1e3:.1f} ms "
        f"({speedup:.1f}x)"
    )
    assert speedup >= 5.0, (
        f"packed netlist simulation only {speedup:.1f}x faster than the "
        f"cycle loop (floor is 5x at {cycles} cycles)"
    )

    _write_artifact(
        netlist_toggle_count={
            "circuit": netlist.name,
            "cells": len(netlist.instances),
            "cycles": cycles,
            "total_toggles": packed.total_toggles(),
            "unpacked_seconds": unpacked_s,
            "packed_seconds": packed_s,
            "speedup": speedup,
        }
    )


def test_packed_sng_speedup_at_4096():
    # The SNG netlist (8-bit LFSR + comparator): its register feedback has no
    # closed form, so the feedback-core resolution must still deliver an
    # order-of-magnitude speedup at Table 3 stream lengths (floor: 10x at
    # 4096 cycles).
    bits, cycles = 8, 4096
    netlist = build_sng(bits, MAXIMAL_TAPS[bits])
    rng = np.random.default_rng(2)
    stimulus = {
        net: rng.integers(0, 2, cycles).astype(np.uint8)
        for net in netlist.primary_inputs
    }

    unpacked_s, unpacked = best_of(lambda: netlist_oracle.simulate(netlist, stimulus))
    packed_s, packed = best_of(lambda: simulate(netlist, stimulus))

    assert packed.toggles == unpacked.toggles
    for net in unpacked.waveforms:
        np.testing.assert_array_equal(packed.waveforms[net], unpacked.waveforms[net])

    speedup = unpacked_s / packed_s
    print(
        f"\nSNG netlist (LFSR feedback core), {len(netlist.instances)} cells x "
        f"{cycles} cycles: cycle loop {unpacked_s * 1e3:.0f} ms, "
        f"packed {packed_s * 1e3:.1f} ms ({speedup:.1f}x)"
    )
    assert speedup >= 10.0, (
        f"packed SNG simulation only {speedup:.1f}x faster than the cycle "
        f"loop (floor is 10x at {cycles} cycles)"
    )

    _write_artifact(
        sng_toggle_count={
            "circuit": netlist.name,
            "cells": len(netlist.instances),
            "cycles": cycles,
            "lfsr_period": (1 << bits) - 1,
            "total_toggles": packed.total_toggles(),
            "unpacked_seconds": unpacked_s,
            "packed_seconds": packed_s,
            "speedup": speedup,
        }
    )


def test_batched_multi_trace_speedup():
    # One batched word-parallel run over a whole trace set vs. the same
    # traces simulated one by one with the (already fast) packed simulate().
    taps, counter_bits, cycles, traces = 25, 9, 1024, 32
    netlist = build_sc_dot_product(taps, counter_bits, adder="tff")
    rng = np.random.default_rng(3)
    stimulus = {
        net: rng.integers(0, 2, (traces, cycles)).astype(np.uint8)
        for net in netlist.primary_inputs
    }

    def sequential():
        return [
            simulate(netlist, {net: wave[k] for net, wave in stimulus.items()})
            for k in range(traces)
        ]

    sequential_s, singles = best_of(sequential)
    batched_s, batched = best_of(lambda: simulate_batch(netlist, stimulus))

    for k in (0, traces // 2, traces - 1):
        assert batched.trace(k).toggles == singles[k].toggles
    assert batched.total_toggles() == sum(s.total_toggles() for s in singles)

    speedup = sequential_s / batched_s
    print(
        f"\nbatched netlist simulation, {len(netlist.instances)} cells x "
        f"{cycles} cycles x {traces} traces: sequential packed "
        f"{sequential_s * 1e3:.0f} ms, batched {batched_s * 1e3:.1f} ms "
        f"({speedup:.1f}x)"
    )
    assert speedup >= 5.0, (
        f"batched simulation only {speedup:.1f}x faster than per-trace packed "
        f"runs (floor is 5x at {traces} traces)"
    )

    _write_artifact(
        batched_simulation={
            "circuit": netlist.name,
            "cells": len(netlist.instances),
            "cycles": cycles,
            "traces": traces,
            "total_toggles": batched.total_toggles(),
            "sequential_packed_seconds": sequential_s,
            "batched_seconds": batched_s,
            "speedup": speedup,
        }
    )


def test_packed_bipolar_dot_product_speedup_at_4096():
    """Packed bipolar engine vs. the byte-per-bit bipolar reference.

    Pinned to ``mode="streams"``: this row compares the packed adder-tree
    stream reduction with the byte-per-bit reference kernel
    (``sc_oracle.bipolar_stochastic_dot_product``), both
    including stream generation; the count-domain mode (which skips that
    reduction entirely) has its own ``bipolar_count_dot`` row in
    BENCH_packed.json.
    """
    precision, taps, batch = 12, 25, 32  # stream length 4096
    length = 1 << precision
    rng = np.random.default_rng(1)
    x = rng.random((batch, taps))
    w = rng.uniform(-1.0, 1.0, taps)
    engine = BipolarDotProductEngine(precision=precision, mode="streams")

    def reference():
        # The engine's generators: van der Corput inputs, Sobol weights.
        x_bits = ComparatorSNG(VanDerCorputSource(precision)).generate_bits(
            bipolar_to_unipolar(x), length
        )
        w_bits = ComparatorSNG(SobolSource(precision, dimension=1)).generate_bits(
            bipolar_to_unipolar(w), length
        )
        return sc_oracle.bipolar_stochastic_dot_product(x_bits, w_bits, TffAdder)

    reference_s, reference_counts = best_of(reference)
    packed_s, packed = best_of(lambda: engine.dot(x, w))

    np.testing.assert_array_equal(packed.count, reference_counts)
    np.testing.assert_array_equal(
        packed.sign,
        BipolarDotProductResult(reference_counts, length, packed.tree_scale).sign,
    )

    speedup = reference_s / packed_s
    print(
        f"\nbipolar dot product N={length}, taps={taps}, batch={batch}: "
        f"byte reference {reference_s * 1e3:.1f} ms, "
        f"packed {packed_s * 1e3:.1f} ms ({speedup:.1f}x)"
    )
    assert speedup >= 5.0, (
        f"packed bipolar dot product only {speedup:.1f}x faster than the "
        f"byte-per-bit reference (floor is 5x at stream length {length})"
    )

    _write_artifact(
        bipolar_dot_product={
            "stream_length": length,
            "taps": taps,
            "batch": batch,
            "unpacked_seconds": reference_s,
            "packed_seconds": packed_s,
            "speedup": speedup,
        }
    )


def _write_artifact(**sections):
    """Merge benchmark sections into the BENCH_netlist.json artifact."""
    data = {}
    if ARTIFACT.exists():
        try:
            data = json.loads(ARTIFACT.read_text())
        except json.JSONDecodeError:
            data = {}
    data.update(sections)
    ARTIFACT.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
