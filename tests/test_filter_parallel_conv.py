"""Differential suite for the filter-parallel, tile-streamed convolution path.

The seed semantics are the per-filter loop: one kernel at a time over untiled
inputs.  Every test here asserts that the vectorized paths -- the
:class:`~repro.sc.dotproduct.PreparedWeights` filter bank, the count-domain
TFF shortcut, and tile-streamed :class:`~repro.sc.convolution.StochasticConv2D`
execution -- are *bit-identical* to that loop, for every adder type,
including tile sizes that do not divide the patch count.  Tiles are forced
through the banks' tile rule (``tiles.forced_tile``) and compared against a
forced single tile.  The loop runs
against two references: ``"packed"`` -- a sequence of one-filter banks under
``mode="streams"`` (for MUX trees one ``mode="streams"`` bank over all
kernels, because every bank restarts its select seeds) -- and ``"unpacked"``
-- the byte-per-bit reference kernels (``sc_oracle``).  A bank is a pure
function of (engine, kernels): a second bank on the same engine returns the
first bank's counts.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hybrid import CalibratedSCEmulator, HybridStochasticBinaryNetwork
from repro.nn import build_lenet5_small, quantize_and_freeze
from repro.sc import StochasticConv2D
from repro.sc.dotproduct import PreparedWeights, StochasticDotProductEngine
from repro.sc.elements.adders import AdderTree, MuxAdder, TffAdder, TreePlan
from repro.utils.windows import extract_patches, patches_to_map

import sc_oracle
from tiles import SINGLE_TILE, forced_tile


def per_filter_reference(reference, engine, x, kernels):
    """The seed path: one kernel at a time, counts stacked last.

    ``"unpacked"`` runs the byte-per-bit reference kernels through one adder
    factory, which consumes MUX select seeds filter-major like one bank over
    all kernels.  ``"packed"`` evaluates a one-filter bank per kernel (pass a
    ``mode="streams"`` engine for the stream reduction); every bank restarts
    its select seeds, so MUX trees take one bank over all kernels instead.
    """
    if reference == "unpacked":
        return sc_oracle.dot_filters(engine, x, kernels)
    prepared = engine.prepare_inputs(x)
    if engine.adder == "mux":
        return engine.prepare_weights(kernels).counts(prepared)
    pos, neg = zip(*(engine.prepare_weights(k[np.newaxis]).counts(prepared) for k in kernels))
    return np.concatenate(pos, axis=-1), np.concatenate(neg, axis=-1)


def make_engine(adder, precision=5, mode=None):
    return StochasticDotProductEngine(precision=precision, adder=adder, seed=3, mode=mode)


def lfsr_engine(adder, mode=None):
    """An LFSR-input engine: its 32-cycle source repeats one value, a tie."""
    return StochasticDotProductEngine(
        precision=5, adder=adder, input_generator="lfsr", seed=3, mode=mode
    )


class TestFilterBankEquivalence:
    @pytest.mark.parametrize("adder", ["tff", "mux"])
    @pytest.mark.parametrize("reference", ["packed", "unpacked"])
    def test_bank_matches_per_filter_loop(self, adder, reference):
        rng = np.random.default_rng(1)
        x = rng.random((2, 9, 13))
        kernels = rng.uniform(-1, 1, (6, 13))
        reference_engine = make_engine(adder, mode="streams")
        bank_engine = make_engine(adder)
        pos_ref, neg_ref = per_filter_reference(reference, reference_engine, x, kernels)
        result = bank_engine.dot_filters(x, kernels)
        np.testing.assert_array_equal(result.positive_count, pos_ref)
        np.testing.assert_array_equal(result.negative_count, neg_ref)
        # A second bank on the same engine returns the first bank's counts
        # (MUX select seeds restart with every bank).
        again = bank_engine.dot_filters(x, kernels)
        np.testing.assert_array_equal(again.positive_count, pos_ref)
        np.testing.assert_array_equal(again.negative_count, neg_ref)

    @pytest.mark.parametrize("adder", ["tff", "mux"])
    def test_dot_is_a_one_filter_bank(self, adder):
        # dot(x, w) must equal dot_filters(x, w[None]) filter 0 on every call,
        # and a second bank on the same engine returns the first one's counts.
        rng = np.random.default_rng(12)
        dot_engine, bank_engine = make_engine(adder), make_engine(adder)
        for _ in range(3):
            x = rng.random((4, 9))
            w = rng.uniform(-1, 1, 9)
            single = dot_engine.dot(x, w)
            bank = bank_engine.dot_filters(x, w[np.newaxis])
            np.testing.assert_array_equal(single.positive_count, bank.positive_count[..., 0])
            np.testing.assert_array_equal(single.negative_count, bank.negative_count[..., 0])
            assert single.tree_scale == bank.tree_scale
            again = dot_engine.dot(x, w)
            np.testing.assert_array_equal(again.positive_count, single.positive_count)
            np.testing.assert_array_equal(again.negative_count, single.negative_count)

    @pytest.mark.parametrize("adder", ["tff", "mux"])
    @pytest.mark.parametrize("reference", ["packed", "unpacked"])
    def test_tied_lfsr_source_bank_matches_per_filter_loop(self, adder, reference):
        # A tied input source, three successive calls, and a tiled bank
        # whose tile size does not divide the input count.  Each call builds
        # a second bank on the same engine, which returns the first bank's
        # counts.
        rng = np.random.default_rng(21)
        kernels = rng.uniform(-1, 1, (5, 11))
        reference_engine = lfsr_engine(adder, mode="streams")
        bank_engine = lfsr_engine(adder)
        first_bank = bank_engine.prepare_weights(kernels)
        for _ in range(3):
            x = rng.random((10, 11))
            pos_ref, neg_ref = per_filter_reference(reference, reference_engine, x, kernels)
            bank = bank_engine.prepare_weights(kernels)
            for start in range(0, 10, 4):
                levels = bank_engine.prepare_inputs(x[start : start + 4])
                p, n = bank.counts(levels)
                np.testing.assert_array_equal(p, pos_ref[start : start + 4])
                np.testing.assert_array_equal(n, neg_ref[start : start + 4])
                first_p, first_n = first_bank.counts(levels)
                np.testing.assert_array_equal(first_p, p)
                np.testing.assert_array_equal(first_n, n)

    @pytest.mark.parametrize("reference", ["packed", "unpacked"])
    def test_bank_reuse_across_tiles_matches_untiled(self, reference):
        rng = np.random.default_rng(2)
        x = rng.random((11, 9))
        kernels = rng.uniform(-1, 1, (4, 9))
        engine = make_engine("mux")
        bank = engine.prepare_weights(kernels)
        if reference == "packed":
            whole_pos, whole_neg = bank.counts(engine.prepare_inputs(x))
        else:
            whole_pos, whole_neg = sc_oracle.dot_filters(make_engine("mux"), x, kernels)
        tiled_pos = np.empty_like(whole_pos)
        tiled_neg = np.empty_like(whole_neg)
        for start in range(0, x.shape[0], 4):  # 4 does not divide 11
            tile = x[start : start + 4]
            p, n = bank.counts(engine.prepare_inputs(tile))
            tiled_pos[start : start + 4] = p
            tiled_neg[start : start + 4] = n
        np.testing.assert_array_equal(tiled_pos, whole_pos)
        np.testing.assert_array_equal(tiled_neg, whole_neg)

    def test_tree_scale_matches_dot_prepared(self):
        rng = np.random.default_rng(3)
        engine = make_engine("tff")
        kernels = rng.uniform(-1, 1, (3, 10))
        result = engine.dot_filters(rng.random((4, 10)), kernels)
        single = engine.dot(rng.random((4, 10)), kernels[0])
        assert result.tree_scale == single.tree_scale
        assert result.length == single.length

    def test_bank_validation(self):
        engine = make_engine("tff")
        with pytest.raises(ValueError):
            engine.prepare_weights(np.zeros(5))  # not 2-D
        with pytest.raises(ValueError):
            engine.prepare_weights(np.zeros((0, 5)))  # zero filters
        bank = engine.prepare_weights(np.zeros((2, 5)))
        with pytest.raises(ValueError):
            bank.counts(engine.prepare_inputs(np.zeros((3, 4))))  # tap mismatch
        with pytest.raises(ValueError):
            engine.dot_filters(np.zeros((3, 4)), np.zeros((2, 5)))
        assert "PreparedWeights" in repr(bank)
        assert isinstance(bank, PreparedWeights)

    @settings(deadline=None, max_examples=20)
    @given(
        taps=st.integers(min_value=1, max_value=12),
        filters=st.integers(min_value=1, max_value=5),
        adder=st.sampled_from(["tff", "mux"]),
        reference=st.sampled_from(["packed", "unpacked"]),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_hypothesis_random_kernels(self, taps, filters, adder, reference, seed):
        rng = np.random.default_rng(seed)
        x = rng.random((3, taps))
        kernels = rng.uniform(-1, 1, (filters, taps))
        reference_engine = make_engine(adder, precision=4, mode="streams")
        bank_engine = make_engine(adder, precision=4)
        pos_ref, neg_ref = per_filter_reference(reference, reference_engine, x, kernels)
        result = bank_engine.dot_filters(x, kernels)
        np.testing.assert_array_equal(result.positive_count, pos_ref)
        np.testing.assert_array_equal(result.negative_count, neg_ref)


class TestCountDomainShortcut:
    def test_reduce_counts_matches_stream_reduction(self):
        rng = np.random.default_rng(4)
        n_bits = 96
        for count in (1, 2, 5, 8, 11):
            streams = rng.integers(0, 2, (7, count, n_bits)).astype(np.uint8)
            plan = AdderTree(TffAdder).plan(count)
            summed = plan.reduce_bits(streams)
            from_streams = summed.sum(axis=-1, dtype=np.int64)
            from_counts = plan.reduce_counts(
                streams.sum(axis=-1, dtype=np.int64)
            )
            np.testing.assert_array_equal(from_counts, from_streams)

    def test_reduce_counts_ceil_rounding(self):
        plan = TreePlan(lambda: TffAdder(initial_state=1), 2)
        # ones 3 + 0 -> ceil(3 / 2) = 2 with initial state 1.
        assert plan.reduce_counts(np.array([3, 0])) == 2
        floor_plan = TreePlan(TffAdder, 2)
        assert floor_plan.reduce_counts(np.array([3, 0])) == 1

    def test_reduce_counts_rejects_position_dependent_adders(self):
        plan = TreePlan(lambda: MuxAdder(seed=1), 4)
        assert not plan.supports_count_reduction
        with pytest.raises(ValueError):
            plan.reduce_counts(np.zeros((2, 4), dtype=np.int64))

    def test_reduce_counts_validates_shape(self):
        plan = TreePlan(TffAdder, 4)
        with pytest.raises(ValueError):
            plan.reduce_counts(np.zeros((2, 3), dtype=np.int64))


class TestTiledConvolution:
    @pytest.mark.parametrize("reference", ["packed", "unpacked"])
    @pytest.mark.parametrize("tile", [1, 3, 7, 50, None])
    def test_tiling_is_bit_identical(self, reference, tile):
        rng = np.random.default_rng(5)
        images = rng.random((2, 6, 6))
        kernels = rng.uniform(-1, 1, (3, 3, 3))
        with forced_tile(tile):
            tiled = StochasticConv2D(
                kernels, engine=make_engine("tff"), padding=1
            ).forward(images)
        if reference == "packed":
            with forced_tile(SINGLE_TILE):
                untiled = StochasticConv2D(
                    kernels, engine=make_engine("tff"), padding=1
                ).forward(images)
            np.testing.assert_array_equal(tiled.sign, untiled.sign)
            np.testing.assert_array_equal(tiled.value, untiled.value)
            pos, neg = untiled.positive_count, untiled.negative_count
        else:
            pos, neg = (
                patches_to_map(c, (6, 6))
                for c in sc_oracle.dot_filters(
                    make_engine("tff"),
                    extract_patches(images, (3, 3), 1, 1),
                    kernels.reshape(3, 9),
                )
            )
        np.testing.assert_array_equal(tiled.positive_count, pos)
        np.testing.assert_array_equal(tiled.negative_count, neg)

    @settings(deadline=None, max_examples=15)
    @given(
        tile=st.integers(min_value=1, max_value=40),
        adder=st.sampled_from(["tff", "mux"]),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_hypothesis_tile_sizes(self, tile, adder, seed):
        rng = np.random.default_rng(seed)
        images = rng.random((1, 5, 5))
        kernels = rng.uniform(-1, 1, (2, 3, 3))
        with forced_tile(SINGLE_TILE):
            untiled = StochasticConv2D(
                kernels, engine=make_engine(adder, precision=4), padding=1
            ).forward(images)
        with forced_tile(tile):
            tiled = StochasticConv2D(
                kernels, engine=make_engine(adder, precision=4), padding=1
            ).forward(images)
        np.testing.assert_array_equal(tiled.positive_count, untiled.positive_count)
        np.testing.assert_array_equal(tiled.negative_count, untiled.negative_count)

    def test_zero_filter_kernels_rejected(self):
        with pytest.raises(ValueError, match="at least one filter"):
            StochasticConv2D(np.zeros((0, 3, 3)))


class TestHybridAndEmulatorTiling:
    def test_calibrate_matches_per_kernel_loop(self):
        rng = np.random.default_rng(6)
        windows = rng.random((12, 9))
        kernels = rng.uniform(-1, 1, (3, 9))
        for adder in ("tff", "mux"):
            reference_engine = make_engine(adder)
            residuals = []
            from repro.bitstream import quantize_unipolar
            from repro.sc.dotproduct import split_weights

            tree_scale = 1 << AdderTree().depth(9)
            n = reference_engine.length
            quantized = quantize_unipolar(windows, reference_engine.precision)
            # One oracle pass over all kernels: the calibration bank's
            # filter-major MUX select seeds.
            pos, neg = sc_oracle.dot_filters(reference_engine, windows, kernels)
            for f, kernel in enumerate(kernels):
                w_pos, w_neg = split_weights(kernel)
                ideal = (quantized @ (w_pos - w_neg)) / tree_scale * n
                residuals.append(pos[:, f] - neg[:, f] - ideal)
            expected = np.concatenate([r.ravel() for r in residuals])

            emulator = CalibratedSCEmulator(make_engine(adder))
            model = emulator.calibrate(windows, kernels)
            np.testing.assert_array_equal(model.residuals, expected)

    def test_tiled_calibration_is_bit_identical(self):
        rng = np.random.default_rng(7)
        windows = rng.random((10, 9))
        kernels = rng.uniform(-1, 1, (2, 9))
        with forced_tile(SINGLE_TILE):
            untiled = CalibratedSCEmulator(make_engine("tff")).calibrate(windows, kernels)
        with forced_tile(3):
            tiled = CalibratedSCEmulator(make_engine("tff")).calibrate(windows, kernels)
        np.testing.assert_array_equal(tiled.residuals, untiled.residuals)
        assert tiled.bias == untiled.bias
        assert tiled.sigma == untiled.sigma

    def test_bitexact_first_layer_tiled_matches_untiled(self):
        rng = np.random.default_rng(8)
        images = rng.random((2, 8, 8))
        model = build_lenet5_small(seed=0, image_size=8, filters1=2)
        frozen = quantize_and_freeze(model, precision=4)
        untiled = HybridStochasticBinaryNetwork(
            frozen, engine=make_engine("tff", precision=4)
        )
        tiled = HybridStochasticBinaryNetwork(
            frozen, engine=make_engine("tff", precision=4)
        )
        with forced_tile(SINGLE_TILE):
            expected = untiled.first_layer_bitexact(images)
        with forced_tile(13):
            np.testing.assert_array_equal(tiled.first_layer_bitexact(images), expected)
