"""Differential + property tests for the engines' count-domain default path.

The default engine (``mode="auto"``: leaf-table gathers, no stream built)
must be *bit-identical* to the reference stream reduction for every
configuration: unipolar split-weight engines with TFF or MUX adder trees
(either input generator, any tap count, any tiling) and the bipolar XNOR
engine (including its odd-tap alternating-stream padding).  Each
differential test runs against two references: ``"packed"`` -- the engine's
own packed stream reduction (``mode="streams"``) -- and ``"unpacked"`` --
the byte-per-bit reference kernels (``sc_oracle``).
These tests pin that contract, the engines' configuration vocabulary and
mode-resolution rules, the ``TreePlan`` mask machinery behind the MUX
shortcut, and the stream-path edge-case fixes that rode along (empty
batches, dtype-preserving count maps, the sign-tie contract, bipolar
input-range validation).
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.sc import (
    BipolarDotProductEngine,
    BipolarDotProductResult,
    MODES,
    StochasticConv2D,
    StochasticDotProductEngine,
    TffAdder,
    MuxAdder,
    new_sc_engine,
    old_sc_engine,
    resolve_mode,
    validate_mode,
)
from repro.sc.elements.adders import TreePlan
from repro.bitstream.packed import pack_bits, packed_popcount
from repro.eval.table2 import ADDER_CONFIGS, adder_mse
from repro.hybrid import CalibratedSCEmulator
from repro.utils.windows import extract_patches, patches_to_map

import sc_oracle
from tiles import SINGLE_TILE, forced_tile

#: The two references every count-domain result is compared against.
REFERENCES = ["packed", "unpacked"]


def unipolar_reference(reference, make_engine, x, weights):
    """``(pos, neg)`` counts of the stream path or of the byte-per-bit oracle.

    ``weights`` is one kernel ``(taps,)`` or a bank ``(filters, taps)``.
    """
    engine = make_engine("streams")
    if reference == "packed":
        result = (engine.dot if weights.ndim == 1 else engine.dot_filters)(x, weights)
        return result.positive_count, result.negative_count
    if weights.ndim == 1:
        return sc_oracle.dot(engine, x, weights)
    return sc_oracle.dot_filters(engine, x, weights)


def bipolar_reference(reference, make_engine, x, weights):
    """Bipolar counts of the stream path or of the byte-per-bit oracle."""
    engine = make_engine("streams")
    if reference == "packed":
        return engine.dot(x, weights).count
    return sc_oracle.bipolar_dot(engine, x, weights)


# --------------------------------------------------------------------- #
# mode resolution
# --------------------------------------------------------------------- #


def test_validate_mode_accepts_known_rejects_unknown():
    for mode in MODES:
        assert validate_mode(mode) == mode
    with pytest.raises(ValueError, match="unknown mode"):
        validate_mode("bitwise")
    with pytest.raises(ValueError, match="unknown mode"):
        validate_mode("")


def test_resolve_mode_precedence():
    # None means the default; an explicit value is validated and kept.
    assert resolve_mode(None) == "auto"
    assert resolve_mode("streams") == "streams"
    assert StochasticDotProductEngine(precision=4).mode == "auto"
    assert BipolarDotProductEngine(precision=4).mode == "auto"
    for bad in ("", "bogus"):
        with pytest.raises(ValueError, match="unknown mode"):
            resolve_mode(bad)


def test_engines_accept_only_the_configurations_the_paper_runs():
    # Each rejection names what is accepted.
    with pytest.raises(ValueError, match=r"unknown adder 'or'; expected one of \('tff', 'mux'\)"):
        StochasticDotProductEngine(adder="or")
    with pytest.raises(
        ValueError, match=r"unknown input generator 'lowdisc'; expected one of \('ramp', 'lfsr'\)"
    ):
        StochasticDotProductEngine(input_generator="lowdisc")
    counts = r"unknown mode 'counts'; expected one of \('auto', 'streams'\)"
    for make in (
        lambda: StochasticDotProductEngine(mode="counts"),
        lambda: BipolarDotProductEngine(mode="counts"),
        lambda: new_sc_engine(4, mode="counts"),
        lambda: old_sc_engine(4, mode="counts"),
        lambda: adder_mse("new_tff", 4, mode="counts"),
    ):
        with pytest.raises(ValueError, match=counts):
            make()
    # One level of TFF and MUX nodes: the factory alternates between them.
    factories = iter([TffAdder, MuxAdder] * 2)
    with pytest.raises(
        ValueError, match="TffAdder nodes sharing one initial_state or MuxAdder nodes"
    ):
        TreePlan(lambda: next(factories)(), 4)
    with pytest.raises(TypeError, match="StochasticDotProductEngine"):
        CalibratedSCEmulator(BipolarDotProductEngine())


def test_engine_rejects_unknown_mode():
    with pytest.raises(ValueError, match="unknown mode"):
        StochasticDotProductEngine(precision=4, mode="fast")
    with pytest.raises(ValueError, match="unknown mode"):
        BipolarDotProductEngine(precision=4, mode="fast")


# --------------------------------------------------------------------- #
# unipolar split-weight engine: counts == streams, bit for bit
# --------------------------------------------------------------------- #

#: Every input x weight generator pair the engine accepts; ``lfsr_top`` is
#: the LFSR input generator seeded with all ones, so the one value its
#: 64-cycle stream repeats is the top of the range and level 63 is skipped.
UNIPOLAR_GENERATORS = [
    ("ramp", "lowdisc"),
    ("lfsr", "lfsr"),
    ("ramp", "lfsr"),
    ("lfsr", "lowdisc"),
    ("lfsr_top", "lfsr"),
]


@pytest.mark.parametrize("adder", ["tff", "mux"])
@pytest.mark.parametrize("reference", REFERENCES)
@pytest.mark.parametrize("input_gen,weight_gen", UNIPOLAR_GENERATORS)
@pytest.mark.parametrize("taps", [1, 2, 3, 7, 25])
def test_unipolar_counts_bit_identical(adder, reference, input_gen, weight_gen, taps):
    rng = np.random.default_rng(taps)
    x = rng.random((5, taps))
    w = rng.uniform(-1.0, 1.0, taps)

    seed = 63 if input_gen == "lfsr_top" else 11

    def make(mode):
        return StochasticDotProductEngine(
            precision=6, adder=adder, input_generator=input_gen.removesuffix("_top"),
            weight_generator=weight_gen, seed=seed, mode=mode,
        )

    counted = make(None).dot(x, w)
    pos, neg = unipolar_reference(reference, make, x, w)
    np.testing.assert_array_equal(counted.positive_count, pos)
    np.testing.assert_array_equal(counted.negative_count, neg)


@pytest.mark.parametrize("adder", ["tff", "mux"])
@pytest.mark.parametrize("reference", REFERENCES)
def test_unipolar_filter_parallel_counts_bit_identical(adder, reference):
    rng = np.random.default_rng(3)
    x = rng.random((9, 25))
    kernels = rng.uniform(-1.0, 1.0, (6, 25))

    def make(mode):
        return StochasticDotProductEngine(precision=6, adder=adder, seed=5, mode=mode)

    counted = make(None).dot_filters(x, kernels)
    pos, neg = unipolar_reference(reference, make, x, kernels)
    np.testing.assert_array_equal(counted.positive_count, pos)
    np.testing.assert_array_equal(counted.negative_count, neg)


@pytest.mark.parametrize("factory", [new_sc_engine, old_sc_engine])
def test_paper_engines_accept_mode(factory):
    rng = np.random.default_rng(2)
    x = rng.random((4, 9))
    w = rng.uniform(-1.0, 1.0, 9)
    counted = factory(6, seed=1).dot(x, w)
    streamed = factory(6, seed=1, mode="streams").dot(x, w)
    np.testing.assert_array_equal(counted.positive_count, streamed.positive_count)
    np.testing.assert_array_equal(counted.negative_count, streamed.negative_count)


def test_repeated_mux_calls_on_one_engine_return_identical_counts():
    """Repeated dot() calls on one MUX engine return identical counts, in both modes.

    Every bank restarts its nodes' select seeds, so a call's counts depend
    only on its inputs and weights: the count path and the stream path agree
    on every call, and a repeated input gives the counts it gave before.
    """
    rng = np.random.default_rng(8)
    x1, x2 = rng.random((4, 10)), rng.random((4, 10))
    w = rng.uniform(-1.0, 1.0, 10)
    engines = {
        mode: StochasticDotProductEngine(
            precision=5, adder="mux", seed=21, mode=mode
        )
        for mode in (None, "streams")
    }
    first = {}
    for x in (x1, x2, x1):
        counted = engines[None].dot(x, w)
        streamed = engines["streams"].dot(x, w)
        np.testing.assert_array_equal(counted.positive_count, streamed.positive_count)
        np.testing.assert_array_equal(counted.negative_count, streamed.negative_count)
        pos, neg = first.setdefault(id(x), (counted.positive_count, counted.negative_count))
        np.testing.assert_array_equal(counted.positive_count, pos)
        np.testing.assert_array_equal(counted.negative_count, neg)


@pytest.mark.parametrize("adder", ["tff", "mux"])
@pytest.mark.parametrize("tile", [None, 1, 7, 64])
def test_conv_counts_mode_tiling_bit_identical(adder, tile):
    rng = np.random.default_rng(1)
    images = rng.random((2, 8, 8))
    kernels = rng.uniform(-1.0, 1.0, (4, 3, 3))
    results = {}
    for mode, mode_tile in ((None, tile), ("streams", SINGLE_TILE)):
        layer = StochasticConv2D(
            kernels,
            engine=StochasticDotProductEngine(
                precision=5, adder=adder, seed=4, mode=mode
            ),
            padding=1,
        )
        with forced_tile(mode_tile):
            results[mode] = layer.forward(images)
    np.testing.assert_array_equal(
        results[None].positive_count, results["streams"].positive_count
    )
    np.testing.assert_array_equal(
        results[None].negative_count, results["streams"].negative_count
    )
    np.testing.assert_array_equal(results[None].sign, results["streams"].sign)


@pytest.mark.parametrize("adder", ["tff", "mux"])
def test_tied_lfsr_source_conv_tiled_bit_identical(adder):
    """On a tied input source (the LFSR repeats one value in its 64-cycle
    stream), the tiled count-domain conv matches the untiled stream conv and
    the byte oracle -- both counters, over three successive forwards of one
    layer (its one bank serves every call)."""
    rng = np.random.default_rng(32)
    kernels = rng.uniform(-1.0, 1.0, (3, 3, 3))

    def make(mode):
        return StochasticDotProductEngine(
            precision=6, adder=adder, input_generator="lfsr", weight_generator="lfsr",
            seed=5, mode=mode,
        )

    source = make(None)._input_sng().source.sequence(64)
    assert np.unique(source).size < source.size
    # 2 x 7 x 7 images give 98 patches; tiles of 9 do not divide them.
    counted = StochasticConv2D(kernels, engine=make(None), padding=1)
    streamed = StochasticConv2D(kernels, engine=make("streams"), padding=1)
    oracle_engine = make("streams")
    for _ in range(3):
        images = rng.random((2, 7, 7))
        pos, neg = (
            patches_to_map(c, (7, 7))
            for c in sc_oracle.dot_filters(
                oracle_engine, extract_patches(images, (3, 3), 1, 1), kernels.reshape(3, 9)
            )
        )
        with forced_tile(9):
            tiled = counted.forward(images)
        with forced_tile(SINGLE_TILE):
            untiled = streamed.forward(images)
        for result in (tiled, untiled):
            np.testing.assert_array_equal(result.positive_count, pos)
            np.testing.assert_array_equal(result.negative_count, neg)


# --------------------------------------------------------------------- #
# bipolar XNOR engine: counts == streams, including padding
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("adder", ["tff", "mux"])
@pytest.mark.parametrize("reference", REFERENCES)
@pytest.mark.parametrize("taps", [1, 2, 3, 5, 9, 25, 32])
def test_bipolar_counts_bit_identical(adder, reference, taps):
    """Covers power-of-two, odd and single tap counts (padding edge cases)."""
    rng = np.random.default_rng(taps + 100)
    x = rng.uniform(-1.0, 1.0, (6, taps))
    w = rng.uniform(-1.0, 1.0, taps)

    def make(mode):
        return BipolarDotProductEngine(precision=6, adder=adder, seed=9, mode=mode)

    counted = make(None).dot(x, w)
    expected = bipolar_reference(reference, make, x, w)
    np.testing.assert_array_equal(counted.count, expected)
    streamed = BipolarDotProductResult(expected, counted.length, counted.tree_scale)
    np.testing.assert_array_equal(counted.sign, streamed.sign)
    np.testing.assert_array_equal(counted.value, streamed.value)
    assert counted.tree_scale == make("streams").dot(x, w).tree_scale


def test_bipolar_auto_mode_is_the_default_table_path():
    rng = np.random.default_rng(0)
    x = rng.uniform(-1.0, 1.0, (4, 7))
    w = rng.uniform(-1.0, 1.0, 7)
    auto = BipolarDotProductEngine(precision=6, seed=2, mode="auto")
    default = BipolarDotProductEngine(precision=6, seed=2)
    assert auto.evaluation_path[0] == default.evaluation_path[0] == "tables"
    np.testing.assert_array_equal(auto.dot(x, w).count, default.dot(x, w).count)


# --------------------------------------------------------------------- #
# property-based sweep
# --------------------------------------------------------------------- #


@settings(max_examples=30, deadline=None)
@given(
    taps=st.integers(min_value=1, max_value=12),
    precision=st.integers(min_value=3, max_value=7),
    adder=st.sampled_from(["tff", "mux"]),
    reference=st.sampled_from(REFERENCES),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_unipolar_counts_property(taps, precision, adder, reference, seed):
    rng = np.random.default_rng(seed)
    x = rng.random((3, taps))
    w = rng.uniform(-1.0, 1.0, taps)

    def make(mode):
        return StochasticDotProductEngine(
            precision=precision, adder=adder, seed=seed, mode=mode
        )

    counted = make(None).dot(x, w)
    pos, neg = unipolar_reference(reference, make, x, w)
    np.testing.assert_array_equal(counted.positive_count, pos)
    np.testing.assert_array_equal(counted.negative_count, neg)


@settings(max_examples=30, deadline=None)
@given(
    taps=st.integers(min_value=1, max_value=12),
    precision=st.integers(min_value=3, max_value=7),
    adder=st.sampled_from(["tff", "mux"]),
    reference=st.sampled_from(REFERENCES),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_bipolar_counts_property(taps, precision, adder, reference, seed):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1.0, 1.0, (3, taps))
    w = rng.uniform(-1.0, 1.0, taps)

    def make(mode):
        return BipolarDotProductEngine(precision=precision, adder=adder, seed=seed, mode=mode)

    counted = make(None).dot(x, w)
    np.testing.assert_array_equal(counted.count, bipolar_reference(reference, make, x, w))


# --------------------------------------------------------------------- #
# TreePlan mask machinery (the MUX count-domain core)
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("count", [1, 2, 3, 5, 7, 8, 25])
@pytest.mark.parametrize("lanes", [1, 3])
def test_leaf_masks_are_disjoint_and_exact(count, lanes):
    length = 96  # not a multiple of 64: exercises the packed tail word
    plan = TreePlan(lambda: MuxAdder(toggle_select=True), count, lanes=lanes)
    rng = np.random.default_rng(count * 10 + lanes)
    bits = rng.integers(0, 2, size=(lanes, count, length)).astype(np.uint8)
    if lanes == 1:
        bits = bits[0]

    # Reference: an identically-seeded plan reducing actual streams.
    ref_plan = TreePlan(lambda: MuxAdder(toggle_select=True), count, lanes=lanes)
    expected = np.asarray(ref_plan.reduce_bits(bits)).sum(axis=-1, dtype=np.int64)

    # Each cycle is owned by at most one leaf (pads absorb the rest).
    masks = plan.leaf_masks(length, packed=False)
    assert np.all(masks.sum(axis=-2) <= 1)

    # Packed masks agree with the unpacked ones bit for bit.
    packed_masks = plan.leaf_masks(length, packed=True)
    np.testing.assert_array_equal(pack_bits(masks), packed_masks)
    # The root stream is the OR of the masked leaves.
    root = np.bitwise_or.reduce(pack_bits(bits) & packed_masks, axis=-2)
    packed_counts = packed_popcount(root)
    np.testing.assert_array_equal(packed_counts[0] if lanes == 1 else packed_counts, expected)


def test_leaf_masks_cached_per_length():
    plan = TreePlan(lambda: MuxAdder(toggle_select=True), 5)
    first = plan.leaf_masks(64, packed=True)
    assert plan.leaf_masks(64, packed=True) is first
    assert plan.leaf_masks(128, packed=True) is not first


def test_tff_plan_reports_count_reduction_mux_reports_masked():
    tff_plan = TreePlan(TffAdder, 8)
    assert tff_plan.supports_count_reduction
    with pytest.raises(ValueError, match="MuxAdder"):
        tff_plan.leaf_masks(64, packed=True)
    mux_plan = TreePlan(lambda: MuxAdder(toggle_select=True), 8)
    assert not mux_plan.supports_count_reduction
    assert mux_plan.leaf_masks(64, packed=True).shape == (1, 8, 1)


# --------------------------------------------------------------------- #
# satellite regressions: stream-path edge cases
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("tile", [None, 16])
def test_conv_empty_batch_returns_empty_result(tile):
    kernels = np.random.default_rng(0).uniform(-1.0, 1.0, (4, 3, 3))
    layer = StochasticConv2D(kernels, engine=new_sc_engine(5, seed=1), padding=1)
    with forced_tile(tile):
        result = layer.forward(np.zeros((0, 8, 8)))
    assert result.sign.shape == (0, 4, 8, 8)
    assert result.positive_count.shape == (0, 4, 8, 8)
    assert result.negative_count.shape == (0, 4, 8, 8)
    assert result.value.shape == (0, 4, 8, 8)
    assert result.sign.dtype == np.int8
    assert result.positive_count.dtype == np.int64
    # Bad geometry still raises even for an empty batch.
    with pytest.raises(ValueError):
        layer.forward(np.zeros((0, 0, 0)))


def test_conv_still_rejects_out_of_range_pixels():
    kernels = np.full((1, 3, 3), 0.5)
    layer = StochasticConv2D(kernels, engine=new_sc_engine(4), padding=1)
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        layer.forward(np.full((1, 8, 8), 1.5))
    for bad in (np.nan, np.inf, -np.inf):
        images = np.full((1, 8, 8), 0.5)
        images[0, 3, 4] = bad
        with pytest.raises(ValueError, match="finite"):
            layer.forward(images)


def test_unipolar_engine_rejects_non_finite_inputs():
    for factory in (new_sc_engine, old_sc_engine):
        engine = factory(8)
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="finite"):
                engine.dot(np.array([bad, 0.5]), np.array([0.5, 0.5]))
            with pytest.raises(ValueError, match="finite"):
                engine.prepare_inputs(np.array([[0.5, bad]]))
        # Out-of-range finite values still clip, as the comparator does.
        np.testing.assert_array_equal(
            engine.prepare_inputs(np.array([-0.5, 1.5])), [0, engine.length]
        )


def test_conv_counts_stay_integer_dtype():
    rng = np.random.default_rng(5)
    layer = StochasticConv2D(
        rng.uniform(-1.0, 1.0, (2, 3, 3)), engine=new_sc_engine(5, seed=1), padding=1
    )
    result = layer.forward(rng.random((1, 6, 6)))
    assert result.positive_count.dtype == np.int64
    assert result.negative_count.dtype == np.int64
    assert result.sign.dtype == np.int8
    assert result.value.dtype == np.float64


def test_patches_to_map_preserves_dtype_exactly():
    # A counter value float64 cannot represent: 2**53 + 1 survives the map.
    big = np.int64(2**53 + 1)
    patch_values = np.full((1, 4, 2), big, dtype=np.int64)
    mapped = patches_to_map(patch_values, (2, 2))
    assert mapped.dtype == np.int64
    assert np.all(mapped == big)
    assert np.int64(float(big)) != big  # the old float64 round trip was lossy
    for dtype in (np.int8, np.int32, np.uint8, np.float32):
        assert patches_to_map(np.zeros((1, 4, 3), dtype=dtype), (2, 2)).dtype == dtype


def test_bipolar_sign_tie_resolves_to_plus_one():
    length = 16
    tie = BipolarDotProductResult(
        count=np.array([length // 2]), length=length, tree_scale=1
    )
    assert tie.sign[0] == 1  # comparator's "not below mid-scale" side
    below = BipolarDotProductResult(
        count=np.array([length // 2 - 1]), length=length, tree_scale=1
    )
    assert below.sign[0] == -1


def test_unipolar_conv_sign_tie_resolves_to_zero():
    # An all-zero kernel produces identical (zero) positive and negative
    # counters at every output: the three-valued sign activation emits 0.
    layer = StochasticConv2D(
        np.zeros((1, 3, 3)), engine=new_sc_engine(4, seed=1), padding=1
    )
    result = layer.forward(np.random.default_rng(0).random((1, 5, 5)))
    np.testing.assert_array_equal(result.positive_count, result.negative_count)
    assert np.all(result.sign == 0)


def test_bipolar_rejects_out_of_range_inputs():
    engine = BipolarDotProductEngine(precision=4)
    w = np.full(4, 0.5)
    with pytest.raises(ValueError, match=r"\[-1, 1\]"):
        engine.dot(np.array([[0.0, 0.5, 1.5, -0.5]]), w)
    with pytest.raises(ValueError, match=r"\[-1, 1\]"):
        engine.dot(np.array([[0.0, 0.5, -1.5, -0.5]]), w)
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="finite"):
            engine.dot(np.array([[0.0, 0.5, bad, -0.5]]), w)
    # Exact boundary values stay legal.
    result = engine.dot(np.array([[1.0, -1.0, 0.0, 1.0]]), w)
    assert result.count.shape == (1,)


# --------------------------------------------------------------------- #
# the Table 2 sweep honours the mode
# --------------------------------------------------------------------- #


def test_table2_counts_mode_bit_identical():
    for config in ADDER_CONFIGS:
        assert adder_mse(config, 4) == adder_mse(config, 4, mode="streams")
