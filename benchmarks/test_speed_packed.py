"""Benchmark: packed-word kernels vs. the byte-per-bit reference.

Times the two hot kernels of the reproduction -- the stochastic dot product
and the stochastic convolution layer -- packed and against the byte-per-bit
reference kernel :func:`~repro.sc.dotproduct.stochastic_dot_product`,
asserts the packed path meets its speedup floor (>= 5x on the dot-product
kernel at stream length 4096), and writes a ``BENCH_packed.json`` artifact
(untracked; CI uploads it) so the speedup trajectory can be tracked across
commits.

Timings use best-of-``REPEATS`` wall-clock so a single scheduler hiccup on a
loaded CI machine cannot fail the regression assertion.
"""

import json
import time
from pathlib import Path

import numpy as np

import sc_oracle
from repro.bitstream import pack_bits, packed_popcount
from repro.datasets import SyntheticDigits
from repro.faults import FaultSpec
from repro.hybrid import HybridStochasticBinaryNetwork
from repro.nn import build_lenet5_small, quantize_and_freeze
from repro.rng import ComparatorSNG, VanDerCorputSource, ramp_compare_batch
from repro.sc import (
    BipolarDotProductEngine,
    StochasticConv2D,
    StochasticDotProductEngine,
    TffAdder,
    new_sc_engine,
    old_sc_engine,
    split_weights,
)
from repro.sc.dotproduct import stochastic_dot_product
from repro.sc.elements.adders import TreePlan
from repro.utils import extract_patches

ARTIFACT = Path(__file__).resolve().parent.parent / "BENCH_packed.json"
REPEATS = 3


def best_of(fn, repeats=REPEATS):
    """Best wall-clock of ``repeats`` runs, plus the last return value."""
    best, result = float("inf"), None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def test_packed_dot_product_speedup_at_4096():
    rng = np.random.default_rng(0)
    length, taps, batch = 4096, 25, 32
    x_bits = rng.integers(0, 2, size=(batch, taps, length)).astype(np.uint8)
    w_bits = rng.integers(0, 2, size=(taps, length)).astype(np.uint8)
    x_words, w_words = pack_bits(x_bits), pack_bits(w_bits)

    unpacked_s, unpacked_counts = best_of(
        lambda: stochastic_dot_product(x_bits, w_bits, TffAdder)
    )
    packed_s, packed_counts = best_of(
        lambda: packed_popcount(
            sc_oracle.reduce_packed(TffAdder, x_words & w_words, length)
        )
    )

    # Correctness first: the speedup claim is only meaningful bit-identically.
    np.testing.assert_array_equal(packed_counts, unpacked_counts)

    speedup = unpacked_s / packed_s
    print(
        f"\ndot product N={length}, taps={taps}, batch={batch}: "
        f"unpacked {unpacked_s * 1e3:.1f} ms, packed {packed_s * 1e3:.1f} ms "
        f"({speedup:.1f}x)"
    )
    assert speedup >= 5.0, (
        f"packed dot product only {speedup:.1f}x faster than unpacked "
        f"(floor is 5x at stream length {length})"
    )

    memory_ratio = x_bits.nbytes / x_words.nbytes
    assert memory_ratio >= 7.9  # 8x minus the tail-word rounding

    _write_artifact(
        dot_product={
            "stream_length": length,
            "taps": taps,
            "batch": batch,
            "unpacked_seconds": unpacked_s,
            "packed_seconds": packed_s,
            "speedup": speedup,
            "memory_ratio": memory_ratio,
        }
    )


def test_packed_convolution_faster():
    """The packed layer vs. the byte-per-bit reference, run per filter.

    The reference generates the layer's streams as bytes (ramp-compare
    inputs, van der Corput weights) and reduces each kernel's positive and
    negative TFF trees with :func:`stochastic_dot_product`.
    """
    rng = np.random.default_rng(1)
    images = rng.random((2, 12, 12))
    kernels = rng.uniform(-1.0, 1.0, (8, 5, 5))
    flat_kernels = kernels.reshape(8, 25)
    layer = StochasticConv2D(kernels, engine=new_sc_engine(8, seed=1), padding=2)

    def reference():
        x_bits = ramp_compare_batch(extract_patches(images, (5, 5), padding=2), 256)
        sng = ComparatorSNG(VanDerCorputSource(8))
        w_pos, w_neg = (sng.generate_bits(w, 256) for w in split_weights(flat_kernels))
        pos = [stochastic_dot_product(x_bits, w, TffAdder) for w in w_pos]
        neg = [stochastic_dot_product(x_bits, w, TffAdder) for w in w_neg]
        return np.stack(pos, axis=-1), np.stack(neg, axis=-1)

    reference_s, (ref_pos, ref_neg) = best_of(reference)
    packed_s, packed = best_of(lambda: layer.forward(images))

    np.testing.assert_array_equal(
        packed.positive_count, ref_pos.transpose(0, 2, 1).reshape(2, 8, 12, 12)
    )
    np.testing.assert_array_equal(
        packed.sign, np.sign(ref_pos - ref_neg).transpose(0, 2, 1).reshape(2, 8, 12, 12)
    )

    speedup = reference_s / packed_s
    print(
        f"\nconvolution 12x12, 8 kernels, N=256: "
        f"byte reference {reference_s * 1e3:.0f} ms, "
        f"packed {packed_s * 1e3:.0f} ms ({speedup:.1f}x)"
    )
    assert speedup > 1.2, f"packed convolution not faster ({speedup:.2f}x)"

    _write_artifact(
        convolution={
            "image": [2, 12, 12],
            "kernels": [8, 5, 5],
            "stream_length": 256,
            "unpacked_seconds": reference_s,
            "packed_seconds": packed_s,
            "speedup": speedup,
        }
    )


def test_filter_parallel_conv_speedup():
    """Filter-parallel conv vs. a per-filter loop of one-filter banks.

    Table 3 scale on the filter axis: 32 kernels at N=256, evaluated over one
    16x16 image's worth of patches.  The per-filter loop is the seed path the
    vectorized bank replaced (one single-kernel bank per filter, weight
    streams regenerated each time); the filter-parallel path evaluates every
    ``(filter, sign)`` tree lane at once and must be bit-identical while
    clearing the acceptance floor of 5x.

    Both sides get the same comparator levels from ``prepare_inputs``.  The
    loop side is pinned to ``mode="streams"``: it stands in for the
    historical per-filter stream path (each bank expands the levels into
    input streams and reduces them level by level), and under the
    ``"auto"`` default a single-kernel bank would gather TFF leaf counts
    from its leaf tables too, which would erase the contrast this row has
    tracked since the filter-parallel change.  The bank side keeps its
    default: the leaf-table gather plus the count-domain halving of all-TFF
    trees.
    """
    rng = np.random.default_rng(2)
    images = rng.random((1, 16, 16))
    kernels = rng.uniform(-1.0, 1.0, (32, 5, 5))
    filters, taps = kernels.shape[0], 25
    flat_kernels = kernels.reshape(filters, taps)
    loop_engine = new_sc_engine(8, seed=1, mode="streams")
    bank_engine = new_sc_engine(8, seed=1)
    patches = extract_patches(images, (5, 5), padding=2).reshape(-1, taps)
    x_levels = loop_engine.prepare_inputs(patches)

    def per_filter_loop():
        pos = np.empty((patches.shape[0], filters), dtype=np.int64)
        neg = np.empty_like(pos)
        for f in range(filters):
            bank = loop_engine.prepare_weights(flat_kernels[f : f + 1])
            pos[:, f : f + 1], neg[:, f : f + 1] = bank.counts(x_levels)
        return pos, neg

    def filter_parallel():
        return bank_engine.prepare_weights(flat_kernels).counts(x_levels)

    loop_s, (loop_pos, loop_neg) = best_of(per_filter_loop)
    parallel_s, (par_pos, par_neg) = best_of(filter_parallel)

    # Correctness first: the counts must be bit-identical to the seed path.
    np.testing.assert_array_equal(par_pos, loop_pos)
    np.testing.assert_array_equal(par_neg, loop_neg)

    speedup = loop_s / parallel_s
    print(
        f"\nfilter-parallel conv, {filters} kernels, "
        f"{patches.shape[0]} patches, N=256: "
        f"per-filter loop {loop_s * 1e3:.1f} ms, "
        f"filter-parallel {parallel_s * 1e3:.1f} ms ({speedup:.1f}x)"
    )
    assert speedup >= 5.0, (
        f"filter-parallel convolution only {speedup:.1f}x faster than the "
        f"per-filter loop (floor is 5x at {filters} filters)"
    )

    _write_artifact(
        filter_parallel_conv={
            "filters": filters,
            "taps": taps,
            "patches": int(patches.shape[0]),
            "stream_length": 256,
            "per_filter_seconds": loop_s,
            "filter_parallel_seconds": parallel_s,
            "speedup": speedup,
        }
    )


def test_mux_count_conv_speedup():
    """Count-domain MUX reduction vs. the stream path on the conv hot loop.

    Table 3 scale on the filter axis: 32 MUX-adder kernels at N=256 over one
    16x16 image's worth of patches, evaluated through the same prepared
    filter-parallel bank the convolution layer uses per tile, from the same
    comparator levels.  The default engine gathers each tap's leaf count
    from leaf tables built once per bank from the weight streams ANDed with
    the per-leaf select-ownership masks, and sums them over taps; the
    ``mode="streams"`` path expands the levels into input streams, multiplies
    them into leaf products and reduces those as one OR of the leaves ANDed
    with the same ownership masks (``faulted_mux_conv`` times that
    reduction).  Counts must be bit-identical while clearing the acceptance
    floor of 3x.
    """
    rng = np.random.default_rng(3)
    images = rng.random((1, 16, 16))
    kernels = rng.uniform(-1.0, 1.0, (32, 5, 5))
    filters, taps = kernels.shape[0], 25
    flat_kernels = kernels.reshape(filters, taps)
    patches = extract_patches(images, (5, 5), padding=2).reshape(-1, taps)

    results, timings = {}, {}
    for mode in ("streams", None):
        engine = StochasticDotProductEngine(
            precision=8, adder="mux", seed=1, mode=mode
        )
        x_levels = engine.prepare_inputs(patches)
        bank = engine.prepare_weights(flat_kernels)
        timings[mode], results[mode] = best_of(lambda: bank.counts(x_levels))

    # Correctness first: the default path must be bit-identical to the streams.
    np.testing.assert_array_equal(results[None][0], results["streams"][0])
    np.testing.assert_array_equal(results[None][1], results["streams"][1])

    speedup = timings["streams"] / timings[None]
    print(
        f"\nmux count conv, {filters} kernels, {patches.shape[0]} patches, "
        f"N=256: streams {timings['streams'] * 1e3:.1f} ms, "
        f"counts {timings[None] * 1e3:.1f} ms ({speedup:.1f}x)"
    )
    assert speedup >= 3.0, (
        f"MUX count-domain convolution only {speedup:.1f}x faster than the "
        f"stream path (floor is 3x at {filters} filters)"
    )

    _write_artifact(
        mux_count_conv={
            "filters": filters,
            "taps": taps,
            "patches": int(patches.shape[0]),
            "stream_length": 256,
            "streams_seconds": timings["streams"],
            "counts_seconds": timings[None],
            "speedup": speedup,
        }
    )


def test_faulted_tff_conv_speedup():
    """Faulted TFF conv: the default faulted path vs. the stream reduction.

    32 TFF kernels (5x5) at N=256 over the 784 patches of one 28x28 image
    under 1e-3 stream flips -- the perfbench ``faults`` first layer.  Both
    banks run ``evaluate`` end to end, so level conversion and fault-mask
    generation are common to both sides.  At 1e-3, 6.2% of the input words
    are faulted, so the default path is the one ``evaluation_path`` names
    ``"corrections"``: leaf-table counts plus one exact correction per
    faulted word, halved per level, with no stream built; the
    ``mode="streams"`` path expands, corrupts and reduces the lane products
    level by level through prefix-parity scans.  Counts must be
    bit-identical while clearing a 3x floor.
    """
    rng = np.random.default_rng(5)
    image = rng.random((1, 28, 28))
    kernels = rng.uniform(-1.0, 1.0, (32, 5, 5))
    filters, taps = kernels.shape[0], 25
    patches = extract_patches(image, (5, 5), padding=2).reshape(-1, taps)
    spec = FaultSpec(flip_rate=1e-3, seed=1)
    path = new_sc_engine(8, seed=1, faults=spec).evaluation_path[0]

    results, timings = {}, {}
    for mode in ("streams", None):
        bank = new_sc_engine(8, seed=1, mode=mode, faults=spec).prepare_weights(
            kernels.reshape(filters, taps)
        )
        timings[mode], results[mode] = best_of(lambda: bank.evaluate(patches))

    np.testing.assert_array_equal(results[None][0], results["streams"][0])
    np.testing.assert_array_equal(results[None][1], results["streams"][1])

    speedup = timings["streams"] / timings[None]
    print(
        f"\nfaulted tff conv, {filters} kernels, {patches.shape[0]} patches, "
        f"N=256, flips 1e-3: streams {timings['streams'] * 1e3:.1f} ms, "
        f"{path} {timings[None] * 1e3:.1f} ms ({speedup:.1f}x)"
    )
    assert speedup >= 3.0, (
        f"faulted TFF {path} path only {speedup:.1f}x faster than the "
        f"stream path (floor is 3x at {filters} filters)"
    )

    _write_artifact(
        faulted_tff_conv={
            "filters": filters,
            "taps": taps,
            "patches": int(patches.shape[0]),
            "stream_length": 256,
            "flip_rate": spec.flip_rate,
            "path": path,
            "streams_seconds": timings["streams"],
            f"{path}_seconds": timings[None],
            "speedup": speedup,
        }
    )


def test_faulted_mux_conv_speedup(monkeypatch):
    """Faulted MUX conv: the masked-OR stream reduction vs. the select cascade.

    The old-SC first layer of the perfbench ``faults`` workload: 32 MUX
    kernels (5x5) at N=256 over the 784 patches of one 28x28 image under
    1e-3 stream flips, where ``evaluation_path`` is ``"streams"``.  Both
    sides run the same bank's ``evaluate`` end to end -- level conversion,
    fault masks, input streams and leaf products are common -- once as it
    is, where ``TreePlan.reduce_packed`` ORs the leaf products ANDed with
    their ownership masks, and once with the word-level select cascade of
    ``sc_oracle.mux_select_cascade`` patched in, which reduces the leaves
    level by level through the select streams.  Counts must be
    bit-identical; CI bounds the ratio.
    """
    rng = np.random.default_rng(5)
    image = rng.random((1, 28, 28))
    kernels = rng.uniform(-1.0, 1.0, (32, 5, 5))
    filters, taps = kernels.shape[0], 25
    patches = extract_patches(image, (5, 5), padding=2).reshape(-1, taps)
    spec = FaultSpec(flip_rate=1e-3, seed=1)
    engine = old_sc_engine(8, seed=1, faults=spec)
    assert engine.evaluation_path[0] == "streams"
    bank = engine.prepare_weights(kernels.reshape(filters, taps))

    masked_s, masked = best_of(lambda: bank.evaluate(patches))
    with monkeypatch.context() as patch:
        patch.setattr(TreePlan, "reduce_packed", sc_oracle.mux_select_cascade)
        cascade_s, cascade = best_of(lambda: bank.evaluate(patches))

    np.testing.assert_array_equal(masked[0], cascade[0])
    np.testing.assert_array_equal(masked[1], cascade[1])

    speedup = cascade_s / masked_s
    print(
        f"\nfaulted mux conv, {filters} kernels, {patches.shape[0]} patches, "
        f"N=256, flips 1e-3: select cascade {cascade_s * 1e3:.1f} ms, "
        f"masked OR {masked_s * 1e3:.1f} ms ({speedup:.1f}x)"
    )

    _write_artifact(
        faulted_mux_conv={
            "filters": filters,
            "taps": taps,
            "patches": int(patches.shape[0]),
            "stream_length": 256,
            "flip_rate": spec.flip_rate,
            "cascade_seconds": cascade_s,
            "masked_or_seconds": masked_s,
            "speedup": speedup,
        }
    )


def test_bipolar_count_dot_speedup():
    """Bipolar TFF engine: leaf-table counts vs. the stream reduction.

    128 windows x 25 taps at N=4096 (the long-stream regime where tree
    tensors hurt most).  The default engine gathers XNOR leaf counts from the
    bank's leaf tables at the inputs' comparator levels -- each alternating
    pad leaf counting ``N/2`` -- and halves them per level, building no
    stream, so it must be bit-identical to the stream reduction while
    clearing a 1.3x end-to-end floor (each ``dot`` call also builds its bank:
    the weight streams and the leaf tables).
    """
    rng = np.random.default_rng(4)
    x = rng.uniform(-1.0, 1.0, (128, 25))
    w = rng.uniform(-1.0, 1.0, 25)

    results, timings = {}, {}
    for mode in ("streams", None):
        engine = BipolarDotProductEngine(
            precision=12, adder="tff", seed=1, mode=mode
        )
        timings[mode], results[mode] = best_of(lambda: engine.dot(x, w))

    np.testing.assert_array_equal(results[None].count, results["streams"].count)

    speedup = timings["streams"] / timings[None]
    print(
        f"\nbipolar count dot, 128 windows, 25 taps, N=4096: "
        f"streams {timings['streams'] * 1e3:.1f} ms, "
        f"counts {timings[None] * 1e3:.1f} ms ({speedup:.1f}x)"
    )
    assert speedup >= 1.3, (
        f"bipolar count-domain dot only {speedup:.1f}x faster than the "
        f"stream path (floor is 1.3x at stream length 4096)"
    )

    _write_artifact(
        bipolar_count_dot={
            "windows": int(x.shape[0]),
            "taps": 25,
            "stream_length": 4096,
            "streams_seconds": timings["streams"],
            "counts_seconds": timings[None],
            "speedup": speedup,
        }
    )


def test_hybrid_bitexact_vs_emulate():
    """Bit-exact vs. emulated first layer, per image through the whole network.

    ``predict_classes`` on 4 synthetic digits at precision 8, for both
    designs, on a seeded LeNet-small conditioned like the Table 3 harness
    (stochastic-resolution first layer, soft threshold 0.02).  Each network
    is warm: its filter bank, leaf tables and emulator calibration were
    built by an untimed call per mode.  The row reports bit-exact time over
    emulate time per design; CI bounds it.
    """
    images = SyntheticDigits.generate(train_size=1, test_size=4, seed=4).x_test
    model = quantize_and_freeze(
        build_lenet5_small(seed=4), precision=8, sc_resolution=True, soft_threshold=0.02
    )
    row = {"images": int(images.shape[0]), "precision": 8}
    for design, factory in (("this_work", new_sc_engine), ("old_sc", old_sc_engine)):
        net = HybridStochasticBinaryNetwork(
            model, engine=factory(8, seed=5), soft_threshold=0.02, seed=4
        )
        per_image = {}
        for mode in ("emulate", "bitexact"):
            warm = net.predict_classes(images, mode=mode)
            seconds, classes = best_of(lambda: net.predict_classes(images, mode=mode))
            np.testing.assert_array_equal(classes, warm)
            per_image[mode] = seconds / images.shape[0]
        ratio = per_image["bitexact"] / per_image["emulate"]
        print(
            f"\nhybrid {design}, batch {images.shape[0]}, N=256: emulate "
            f"{per_image['emulate'] * 1e3:.2f} ms/image, bit-exact "
            f"{per_image['bitexact'] * 1e3:.2f} ms/image ({ratio:.2f}x)"
        )
        row[design] = {
            "emulate_seconds_per_image": per_image["emulate"],
            "bitexact_seconds_per_image": per_image["bitexact"],
            "ratio": ratio,
        }
    _write_artifact(hybrid_bitexact_vs_emulate=row)


def _write_artifact(**sections):
    """Merge benchmark sections into the BENCH_packed.json artifact."""
    data = {}
    if ARTIFACT.exists():
        try:
            data = json.loads(ARTIFACT.read_text())
        except json.JSONDecodeError:
            data = {}
    data.update(sections)
    ARTIFACT.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
