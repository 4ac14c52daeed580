#!/usr/bin/env python3
"""A tour of the stochastic-computing substrate, from bit-streams to gates.

Goes one level deeper than the quickstart: correlation metrics, the effect of
auto-correlated (sensor-style) streams on different adders, packed-word
simulation and its byte-per-bit reference, the exhaustive Table 1 / Table 2
sweeps, the gate-level netlists behind the hardware numbers (cell counts,
area, simulated switching activity), and the static analyzer that proves
those netlists well-formed (``repro.netlist.lint`` / ``python -m repro lint``).

Run with:  python examples/sc_primitives_tour.py
"""

import time

import numpy as np

from repro.bitstream import Bitstream, autocorrelation, stochastic_cross_correlation
from repro.bitstream.packed import pack_bits, packed_popcount, unpack_bits
from repro.eval import format_table1, format_table2, run_table1, run_table2
from repro.faults import FaultSpec, flip_binary_words
from repro.netlist import (
    LintError,
    build_binary_mac,
    build_sc_dot_product,
    build_sng,
    build_tff_adder,
    estimate_area_mm2,
    estimate_power,
    lint,
    simulate,
    simulate_batch,
)
from repro.rng import (
    MAXIMAL_TAPS,
    ComparatorSNG,
    LFSRSource,
    VanDerCorputSource,
    ramp_compare_batch,
    ramp_compare_stream,
)
from repro.sc import (
    MuxAdder,
    StochasticConv2D,
    StochasticDotProductEngine,
    TffAdder,
    split_weights,
    stochastic_dot_product,
    stochastic_to_binary,
)
from repro.sc.dotproduct import TILE_BYTES, tile_patches
from repro.utils.windows import extract_patches, patches_to_map


def section(title: str) -> None:
    print()
    print("=" * 72)
    print(title)
    print("=" * 72)


def main() -> None:
    section("Correlation: why SNG choice matters")
    lfsr_a = ComparatorSNG(LFSRSource(8, seed=1)).generate(0.5, 256)
    lfsr_b = ComparatorSNG(LFSRSource(8, seed=77)).generate(0.5, 256)
    lowdisc = ComparatorSNG(VanDerCorputSource(8)).generate(0.5, 256)
    ramp = Bitstream(ramp_compare_stream(0.5, 256))
    print(f"SCC(two LFSR streams)          = {stochastic_cross_correlation(lfsr_a, lfsr_b):+.3f}")
    print(f"SCC(LFSR, low-discrepancy)     = {stochastic_cross_correlation(lfsr_a, lowdisc):+.3f}")
    print(f"lag-1 autocorrelation, LFSR    = {autocorrelation(lfsr_a):+.3f}")
    print(f"lag-1 autocorrelation, ramp    = {autocorrelation(ramp):+.3f}   "
          "(sensor streams are heavily auto-correlated)")

    section("Auto-correlated inputs break nothing for the TFF adder")
    x = Bitstream(ramp_compare_stream(0.7, 128))
    y = Bitstream(ramp_compare_stream(0.2, 128))
    tff = TffAdder()(x, y)
    mux = MuxAdder(seed=3)(x, y)
    print("expected (0.7 + 0.2)/2 = 0.450")
    print(f"TFF adder on ramp streams: {stochastic_to_binary(tff):.4f}")
    print(f"MUX adder on ramp streams: {stochastic_to_binary(mux):.4f}")

    section("Packed words: 64 clock cycles per machine instruction")
    stream = Bitstream.from_random(0.5, 4096, rng=0)
    words = pack_bits(stream.bits)
    assert np.array_equal(unpack_bits(words, len(stream)), stream.bits)  # lossless
    print(f"unpacked storage: {stream.bits.nbytes} bytes;  "
          f"packed: {words.nbytes} bytes "
          f"({stream.bits.nbytes // words.nbytes}x smaller)")
    # The engines simulate packed words only; the byte-per-bit kernel
    # stochastic_dot_product() defines the same counters on plain bit arrays
    # (ramp-compare inputs, van der Corput weights, a TFF adder tree).
    rng = np.random.default_rng(1)
    x = rng.random((16, 25))
    w = rng.uniform(-1, 1, 25)
    engine = StochasticDotProductEngine(precision=10, mode="streams")
    start = time.perf_counter()
    result = engine.dot(x, w)
    packed_s = time.perf_counter() - start
    start = time.perf_counter()
    w_pos, _ = split_weights(w)
    reference = stochastic_dot_product(
        ramp_compare_batch(x, 1024),
        ComparatorSNG(VanDerCorputSource(10)).generate_bits(w_pos, 1024),
        TffAdder,
    )
    reference_s = time.perf_counter() - start
    assert np.array_equal(result.positive_count, reference)
    print(f"packed dot-product engine (N=1024): {packed_s * 1e3:6.1f} ms, "
          f"first count {int(result.positive_count[0])}")
    print(f"byte-per-bit reference    (N=1024): {reference_s * 1e3:6.1f} ms, "
          f"first count {int(reference[0])}")
    print("identical counter values, the packed engine ~an order of magnitude faster")

    section("Exhaustive accuracy sweeps (Tables 1 and 2, 6-bit for speed)")
    print(format_table1(run_table1(precisions=(6, 4))))
    print()
    print(format_table2(run_table2(precisions=(6, 4))))

    section("Gate-level view: the netlists behind the Table 3 hardware numbers")
    adder = build_tff_adder()
    print(f"TFF adder netlist: {adder.cell_counts()}")
    engine = build_sc_dot_product(taps=25, counter_bits=9, adder="tff")
    mac = build_binary_mac(bits=8, accumulator_bits=21)
    print(f"stochastic dot-product engine: {len(engine.instances)} cells, "
          f"{estimate_area_mm2(engine) * 1e6:.0f} um^2")
    print(f"binary 8-bit MAC unit:         {len(mac.instances)} cells, "
          f"{estimate_area_mm2(mac) * 1e6:.0f} um^2")

    rng = np.random.default_rng(0)
    stimulus = {"x": rng.integers(0, 2, 64), "y": rng.integers(0, 2, 64)}
    result = simulate(adder, stimulus)
    report = estimate_power(adder, frequency_mhz=500.0, simulation=result)
    print(f"TFF adder simulated for 64 cycles: average switching activity "
          f"{result.average_activity():.2f}, power {report.total_mw * 1e3:.1f} uW at 500 MHz")

    section("Packed netlist simulation: whole waveforms, 64 cycles per word")
    cycles = 512
    stimulus = {net: rng.integers(0, 2, cycles) for net in engine.primary_inputs}
    start = time.perf_counter()
    activity = simulate(engine, stimulus)
    elapsed = time.perf_counter() - start
    print(f"packed simulation of the engine netlist "
          f"({len(engine.instances)} cells x {cycles} cycles): "
          f"{elapsed * 1e3:6.1f} ms, {activity.total_toggles()} toggles")
    print("each cell runs once on whole uint64 waveform words "
          "(the same word kernels drive the bipolar XNOR engine)")

    section("Feedback cores: LFSR netlists stay word-parallel")
    sng = build_sng(8, MAXIMAL_TAPS[8])
    cycles = 2048
    stimulus = {net: rng.integers(0, 2, cycles) for net in sng.primary_inputs}
    start = time.perf_counter()
    activity = simulate(sng, stimulus)
    elapsed = time.perf_counter() - start
    print(f"SNG netlist (8-bit LFSR + comparator, {len(sng.instances)} cells, "
          f"{cycles} cycles):")
    print(f"  packed {elapsed * 1e3:6.1f} ms, {activity.total_toggles()} toggles")
    print("  the LFSR loop is iterated only over its 255-state period and the")
    print("  waveform wrapped out to the full run; the comparator stays packed")

    section("Filter-parallel convolution: all kernels in one vectorized pass")
    # The hybrid first layer applies 32 kernels to every image window.  The
    # engine's prepare_weights() builds one weight bank with a leading filter
    # axis (plus fused positive/negative trees) so a single reduction covers
    # every kernel -- bit-identical to one single-kernel bank per filter, and
    # for the TFF adder the tree collapses to exact count arithmetic.
    loop_engine = StochasticDotProductEngine(precision=8, mode="streams")
    conv_engine = StochasticDotProductEngine(precision=8)
    windows = rng.random((256, 25))          # one 16x16 image's worth of patches
    conv_kernels = rng.uniform(-1, 1, (32, 25))
    prepared = conv_engine.prepare_inputs(windows)
    start = time.perf_counter()
    loop_counts = [
        loop_engine.prepare_weights(k[np.newaxis]).counts(prepared)[0][:, 0]
        for k in conv_kernels
    ]
    loop_s = time.perf_counter() - start
    start = time.perf_counter()
    bank_pos, _ = conv_engine.prepare_weights(conv_kernels).counts(prepared)
    bank_s = time.perf_counter() - start
    assert np.array_equal(bank_pos, np.stack(loop_counts, axis=-1))
    print(f"32 kernels x 256 windows at N=256: per-filter loop {loop_s * 1e3:6.1f} ms, "
          f"filter-parallel {bank_s * 1e3:6.1f} ms ({loop_s / bank_s:.0f}x)")

    section("Count-domain default: comparator levels and leaf tables, no streams")
    # Every input stream is a comparator output against one shared source, so
    # prepare_inputs() returns one integer level per input, c = #{n: s[n] < v}
    # (the stream's ones are the first c cycles in source-sorted order).  On
    # the default engine's "tables" path popcount(x & w) is then one lookup
    # into a per-lane table of cumulative weight bits: all-TFF trees halve the
    # looked-up leaf counts with floor/ceil((cx+cy)/2) per level, and all-MUX
    # trees build their tables from weight bits ANDed with disjoint per-leaf
    # select-ownership masks and sum them.  No stream is ever built.  Both
    # shortcuts are exact -- identical counters, not close ones -- so
    # mode="streams", the reference stream reduction, trades speed and memory
    # only.  evaluation_path names the path an engine's banks run, and why;
    # input_words() expands levels into streams.
    levels = conv_engine.prepare_inputs(windows[:1, :4])
    words = conv_engine.input_words(levels)
    assert np.array_equal(packed_popcount(words), levels)
    print(f"levels {levels[0].tolist()} ({levels.dtype}) expand to streams with "
          f"exactly those ones-counts")
    for adder in ("mux", "tff"):
        stream_eng = StochasticDotProductEngine(precision=8, adder=adder, mode="streams")
        count_eng = StochasticDotProductEngine(precision=8, adder=adder)
        path, reason = count_eng.evaluation_path
        print(f"{adder:>4s} tree, default engine: evaluation_path {path!r} ({reason})")
        start = time.perf_counter()
        via_streams = stream_eng.dot_filters(windows, conv_kernels)
        stream_s = time.perf_counter() - start
        start = time.perf_counter()
        via_counts = count_eng.dot_filters(windows, conv_kernels)
        count_s = time.perf_counter() - start
        assert np.array_equal(via_streams.positive_count, via_counts.positive_count)
        assert np.array_equal(via_streams.negative_count, via_counts.negative_count)
        print(f"{adder:>4s} tree, 32 kernels x 256 windows: streams "
              f"{stream_s * 1e3:6.1f} ms, counts {count_s * 1e3:6.1f} ms "
              f"({stream_s / count_s:.1f}x), identical counters")

    section("Tile-streamed execution: full-scale bit-exact runs in bounded memory")
    # A filter bank's evaluate() cuts any batch into patch tiles by itself: a
    # fixed byte budget over the per-patch size of the largest temporary on
    # the path it runs -- here the gathered leaf counts.  Counts are
    # accumulated tile by tile and stay bit-identical to one untiled pass
    # (level conversion is stateless, the weight bank -- select streams,
    # leaf tables -- is reused), so memory is bounded at any batch size.
    # This is what lets the bit-exact Table 3 rows cover the whole test set.
    images = rng.random((4, 28, 28))
    tile_engine = StochasticDotProductEngine(precision=8)
    tile = tile_patches(tile_engine, 32, 25)
    tiled = StochasticConv2D(
        conv_kernels.reshape(32, 5, 5), engine=tile_engine, padding=2).forward(images)
    patches = extract_patches(images, (5, 5), 1, 2)
    direct_pos, _ = tile_engine.prepare_weights(conv_kernels).counts(
        tile_engine.prepare_inputs(patches))
    assert np.array_equal(tiled.positive_count, patches_to_map(direct_pos, (28, 28)))
    print(f"4 x 28x28 images, 32 kernels: {patches.shape[0] * patches.shape[1]} "
          f"patches in automatic tiles of {tile} ({TILE_BYTES >> 20} MiB of leaf "
          f"counts; doesn't divide them) -> identical counters to one direct "
          f"counts call on all {tiled.positive_count.size} outputs")

    section("Batched multi-trace simulation: one run, a whole trace set")
    traces = 16
    batched_stim = {
        net: rng.integers(0, 2, (traces, cycles)) for net in engine.primary_inputs
    }
    start = time.perf_counter()
    batched = simulate_batch(engine, batched_stim)
    batched_s = time.perf_counter() - start
    start = time.perf_counter()
    sequential = [
        simulate(engine, {net: w[k] for net, w in batched_stim.items()})
        for k in range(traces)
    ]
    sequential_s = time.perf_counter() - start
    assert batched.trace(0).toggles == sequential[0].toggles
    report = estimate_power(engine, frequency_mhz=500.0, simulation=batched)
    spread = batched.average_activity_per_trace()
    print(f"{traces} stimulus traces x {cycles} cycles, stacked on a leading axis:")
    print(f"  batched {batched_s * 1e3:6.1f} ms vs sequential "
          f"{sequential_s * 1e3:6.1f} ms ({sequential_s / batched_s:.0f}x)")
    print(f"  activity {batched.average_activity():.3f} "
          f"(per-trace spread {spread.min():.3f} .. {spread.max():.3f}), "
          f"trace-driven power {report.total_mw * 1e3:.0f} uW")

    section("Static analysis: proving netlists well-formed without simulating")
    clean = lint(engine)
    print(f"engine lint report: {clean.format().splitlines()[0]}")
    print(f"  critical path: {clean.stats.critical_path_length} combinational "
          f"levels, max fanout {clean.stats.max_fanout}")
    # Deliberately corrupt a copy of the engine: rewire one adder input to a
    # net that does not exist, and export an output nobody drives.
    broken = build_sc_dot_product(9, 8)
    victim = broken.instances[len(broken.instances) // 2]
    victim.inputs = (victim.inputs[0], "severed_net") + victim.inputs[2:]
    broken.add_output("phantom_out")
    report = lint(broken)
    print("after cutting one wire and exporting a phantom output:")
    for finding in report.errors[:2]:
        print(f"  {finding.format()}".replace("\n", "\n  "))
    # strict=True runs the error-severity rules as an elaboration step, so
    # the corruption is refused up front instead of producing wrong waveforms.
    try:
        simulate(broken, {}, strict=True)
    except LintError as exc:
        print(f"simulate(strict=True) refused: {str(exc)[:72]}...")

    section("Fault injection: the 1/N graceful-degradation bound, measured")
    # A flipped stream bit moves the encoded value by exactly 1/N -- the
    # error of a faulted stream is bounded by (number of flips) / N.
    # FaultSpec.apply flips packed words, (taps, W) here: w ^ flips.
    n = 256
    stream = Bitstream.from_random(0.7, n, rng=1)
    spec = FaultSpec(flip_rate=0.02, seed=3)
    words = spec.apply(pack_bits(stream.bits)[np.newaxis], n)
    faulted = Bitstream(unpack_bits(words[0], n))
    flips = int(np.count_nonzero(faulted.bits != stream.bits))
    err = abs(faulted.value - stream.value)
    assert err <= flips / n + 1e-12
    print(f"N={n} stream at p=0.7, flip rate 2%: {flips} flips, "
          f"|value error| {err:.4f} <= {flips}/N = {flips / n:.4f}")
    # The same per-bit upset on a binary word has no such bound: one hit on
    # the top of a 16-bit two's-complement word swings the value by 2**15.
    word = np.array([1000], dtype=np.int64)
    worst = max(abs(int(flip_binary_words(word, 16, 0.06, seed=s)[0]) - 1000)
                for s in range(40))
    print(f"16-bit binary word 1000 at the same exposure: worst observed "
          f"swing {worst} LSBs across 40 seeds")

    # And the engine-level spec threads through the convolution's tiles.
    # evaluation_path picks the faulted path from the rates and the stream
    # length: sparse faults keep the leaf tables and correct each faulted
    # input word, dense ones make the bank build and AND faulted input
    # streams, whose lane products shrink the automatic tile (a TFF tree
    # then halves their popcounts).  Every tile is corrupted at its global
    # patch offset, so tiling never changes the faulted counts.
    for rate in (1e-3, 1e-2):
        path, reason = StochasticDotProductEngine(
            precision=8, faults=FaultSpec(flip_rate=rate)).evaluation_path
        print(f"flips {rate:g}: evaluation_path {path!r} ({reason})")
    rng2 = np.random.default_rng(5)
    tile_image = rng2.random((1, 28, 28))
    tile_kernels = rng2.uniform(-1, 1, (16, 3, 3))
    conv_spec = FaultSpec(flip_rate=0.01, seed=7)
    clean_conv = StochasticConv2D(
        tile_kernels, engine=StochasticDotProductEngine(precision=8),
        padding=1).forward(tile_image)
    fault_engine = StochasticDotProductEngine(precision=8, faults=conv_spec)
    faulted_conv = StochasticConv2D(
        tile_kernels, engine=fault_engine, padding=1).forward(tile_image)
    fault_patches = extract_patches(tile_image, (3, 3), 1, 1)
    direct_pos, _ = fault_engine.prepare_weights(tile_kernels.reshape(16, 9)).counts(
        fault_engine.apply_faults(fault_engine.prepare_inputs(fault_patches)))
    assert np.array_equal(faulted_conv.positive_count, patches_to_map(direct_pos, (28, 28)))
    agreement = (faulted_conv.sign == clean_conv.sign).mean()
    print(f"conv under 1% stream flips: sign agreement {agreement:.3f} vs clean; "
          f"784 patches in automatic tiles of {tile_patches(fault_engine, 16, 9)} "
          f"== one direct counts call, bit-identically")


if __name__ == "__main__":
    main()
