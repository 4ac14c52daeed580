"""The filter banks' self-chosen evaluation tile.

A bank's ``evaluate`` cuts its input rows into tiles of
:func:`repro.sc.dotproduct.tile_patches` rows -- a fixed byte budget over
the per-row size of the largest temporary on the path the bank runs -- so
memory is bounded by default.  These tests pin the rule, the path decision
it rests on, the row/offset contract of ``evaluate`` against one direct
``counts`` call over all rows, the bounded peak, and the network's read-only
``tile_patches`` property.
"""

import tracemalloc

import numpy as np
import pytest

from repro.faults import FaultSpec
from repro.hybrid import HybridStochasticBinaryNetwork
from repro.nn import build_lenet5_small, quantize_and_freeze
from repro.sc import (
    BipolarDotProductEngine,
    StochasticConv2D,
    StochasticDotProductEngine,
    new_sc_engine,
    old_sc_engine,
)
from repro.sc.dotproduct import TILE_BYTES, PreparedWeights, tile_patches

from tiles import forced_tile

FLIPS = FaultSpec(flip_rate=0.01, seed=3)


class TestRule:
    def test_count_path_budgets_the_gathered_leaf_counts(self):
        # 25 taps x 64 lanes x int16 = 3.2 KB per row.
        assert tile_patches(new_sc_engine(8), 32, 25) == TILE_BYTES // 3200 == 1310
        assert tile_patches(old_sc_engine(8), 32, 25) == 1310
        # One filter: the int64 table-row index, 25 x 8 bytes per row,
        # outweighs its 2 lanes x int16 gathered counts.
        assert tile_patches(new_sc_engine(8), 1, 25) == TILE_BYTES // 200

    def test_stream_path_budgets_the_lane_products(self):
        # 64 lanes x 25 taps x 4 words x 8 bytes = 51.2 KB per row.
        for engine in (new_sc_engine(8, faults=FLIPS), new_sc_engine(8, mode="streams")):
            assert tile_patches(engine, 32, 25) == TILE_BYTES // 51200 == 81

    def test_corrections_path_budgets_counts_masks_and_corrections(self):
        # 1e-3 flips at N = 256: 6.2% of the words faulted, so the 3.2 KB
        # gathered counts outweigh the flip mask's hashing buffers (3 x 25 x
        # 4 words, 2.4 KB) and the expected corrections (0.062 x 100 words x
        # 64 lanes x 8 bytes): one 28x28 image (784 patches) is one tile.
        sparse = new_sc_engine(8, faults=FaultSpec(flip_rate=1e-3, seed=1))
        assert sparse.evaluation_path[0] == "corrections"
        assert tile_patches(sparse, 32, 25) == 1310
        # Eight filters: the mask buffers dominate.
        assert tile_patches(sparse, 8, 25) == TILE_BYTES // 2400
        # 4e-3 flips (22.7%): the expected corrections dominate.
        denser = new_sc_engine(8, faults=FaultSpec(flip_rate=4e-3, seed=1))
        share = denser.faults.word_fault_share(256)
        assert tile_patches(denser, 32, 25) == TILE_BYTES // int(share * 100 * 64 * 8)
        # Bipolar: the mask buffers outweigh 32 padded leaves x 32 filters x int16.
        bipolar = BipolarDotProductEngine(precision=8, faults=FaultSpec(flip_rate=1e-3))
        assert tile_patches(bipolar, 32, 25) == TILE_BYTES // 2400

    def test_bipolar_budgets_the_padded_xnor_products(self):
        # Table path: 32 padded leaves x the int64 table-row index, which
        # outweighs one filter's int16 gathered counts; 8 filters' counts
        # (16 bytes per leaf) outweigh the index.
        assert tile_patches(BipolarDotProductEngine(precision=12), 1, 25) == TILE_BYTES // 256
        assert tile_patches(BipolarDotProductEngine(precision=12), 8, 25) == TILE_BYTES // 512
        # Stream paths: 1 filter x 32 padded taps x 64 words x 8 bytes.
        for engine in (
            BipolarDotProductEngine(precision=12, mode="streams"),
            BipolarDotProductEngine(precision=12, faults=FLIPS),
        ):
            assert tile_patches(engine, 1, 25) == 256

    def test_tile_is_at_least_one_row(self):
        assert tile_patches(new_sc_engine(14, mode="streams"), 256, 1024) == 1

    def test_path_decision_needs_no_plan(self):
        assert new_sc_engine(8)._use_count_mode
        assert old_sc_engine(8)._use_count_mode
        assert new_sc_engine(8, faults=FaultSpec(seed=1))._use_count_mode
        assert not new_sc_engine(8, mode="streams")._use_count_mode
        assert not new_sc_engine(8, faults=FLIPS)._use_count_mode
        for adder in ("tff", "mux"):
            assert BipolarDotProductEngine(precision=8, adder=adder)._use_count_mode
            assert not BipolarDotProductEngine(precision=8, adder=adder, faults=FLIPS)._use_count_mode


class TestEvaluate:
    # Faults or mode="streams" put the bank on a stream path.
    @pytest.mark.parametrize("mode", [None, "streams"])
    @pytest.mark.parametrize("faults", [None, FLIPS])
    @pytest.mark.parametrize("adder", ["tff", "mux"])
    def test_tiles_match_one_direct_counts_call(self, adder, faults, mode):
        rng = np.random.default_rng(2)
        values = rng.random((3, 7, 9))
        kernels = rng.uniform(-1.0, 1.0, (4, 9))
        engine = StochasticDotProductEngine(
            precision=5, adder=adder, seed=2, mode=mode, faults=faults
        )
        bank = engine.prepare_weights(kernels)
        # Leading axes flatten in C order; faults are keyed on row indices.
        expected = bank.counts(engine.apply_faults(engine.prepare_inputs(values)))
        for tile in (1, 4, 20, None):
            with forced_tile(tile):
                pos, neg = bank.evaluate(values)
            assert pos.shape == neg.shape == (3, 7, 4)
            np.testing.assert_array_equal(pos, expected[0])
            np.testing.assert_array_equal(neg, expected[1])

    @pytest.mark.parametrize("mode", [None, "streams"])
    @pytest.mark.parametrize("faults", [None, FLIPS])
    @pytest.mark.parametrize("adder", ["tff", "mux"])
    def test_bipolar_tiles_match_one_direct_counts_call(self, adder, faults, mode):
        rng = np.random.default_rng(3)
        values = rng.uniform(-1.0, 1.0, (2, 11, 5))
        engine = BipolarDotProductEngine(
            precision=6, adder=adder, seed=2, mode=mode, faults=faults
        )
        bank = engine.prepare_weights(rng.uniform(-1.0, 1.0, (3, 5)))
        expected = bank.counts(engine.apply_faults(engine.prepare_inputs(values)))
        for tile in (1, 3, 37, None):
            with forced_tile(tile):
                np.testing.assert_array_equal(bank.evaluate(values), expected)

    def test_zero_rows_give_empty_counts(self):
        bank = new_sc_engine(5).prepare_weights(np.full((3, 4), 0.5))
        pos, neg = bank.evaluate(np.zeros((0, 4)))
        assert pos.shape == neg.shape == (0, 3) and pos.dtype == np.int64
        bipolar = BipolarDotProductEngine(precision=5).prepare_weights(np.full((3, 4), 0.5))
        assert bipolar.evaluate(np.zeros((0, 4))).shape == (0, 3)

    def test_tap_mismatch_raises(self):
        bank = new_sc_engine(5).prepare_weights(np.full((3, 4), 0.5))
        with pytest.raises(ValueError, match="tap count mismatch"):
            bank.evaluate(np.zeros((2, 5)))


def _largest_counts_growth(monkeypatch, run) -> int:
    """Largest traced-memory growth inside one ``PreparedWeights.counts`` call."""
    original = PreparedWeights.counts
    peaks = []

    def counts(self, prepared):
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        try:
            return original(self, prepared)
        finally:
            peaks.append(tracemalloc.get_traced_memory()[1] - base)

    monkeypatch.setattr(PreparedWeights, "counts", counts)
    tracemalloc.start()
    try:
        run()
    finally:
        tracemalloc.stop()
        monkeypatch.setattr(PreparedWeights, "counts", original)
    return max(peaks)


@pytest.mark.parametrize(
    "faults, filters, batches",
    [
        (None, 32, (4, 64)),
        # The corrections tile (1,747 rows at 8 filters) exceeds one image.
        (FaultSpec(flip_rate=1e-3, seed=1), 8, (3, 24)),
        (FaultSpec(flip_rate=1e-2, seed=1), 8, (1, 8)),
    ],
    ids=["count_path", "stream_faults", "dense_stream_faults"],
)
def test_memory_is_bounded_by_default(monkeypatch, faults, filters, batches):
    """With no setting, the peak inside one counts call does not grow with the batch."""
    rng = np.random.default_rng(0)
    kernels = rng.uniform(-1.0, 1.0, (filters, 5, 5))
    peaks = []
    for batch in batches:
        images = rng.random((batch, 28, 28))
        layer = StochasticConv2D(kernels, engine=new_sc_engine(8, faults=faults), padding=2)
        peaks.append(_largest_counts_growth(monkeypatch, lambda: layer.forward(images)))
    small, large = peaks
    assert large <= 1.25 * small, peaks


class TestNetworkTileProperty:
    @pytest.fixture(scope="class")
    def model(self):
        return quantize_and_freeze(build_lenet5_small(seed=0), precision=6)

    def test_property_is_the_tile_the_layer_runs(self, model, monkeypatch):
        network = HybridStochasticBinaryNetwork(model, engine=new_sc_engine(6))
        filters, kh, kw = network.kernels.shape
        assert network.tile_patches == tile_patches(network.engine, filters, kh * kw)
        rows = []
        original = PreparedWeights.counts

        def counts(self, prepared):
            rows.append(len(prepared))
            return original(self, prepared)

        monkeypatch.setattr(PreparedWeights, "counts", counts)
        images = np.random.default_rng(1).random((2, 28, 28))
        network.first_layer_bitexact(images)
        assert network.tile_patches < 2 * 28 * 28
        assert rows == [network.tile_patches, 2 * 28 * 28 - network.tile_patches]
        with forced_tile(37):
            assert network.tile_patches == 37

    def test_reading_the_property_leaves_old_sc_counts_unchanged(self, model):
        images = np.random.default_rng(2).random((1, 28, 28))
        read, unread = (
            HybridStochasticBinaryNetwork(model, engine=old_sc_engine(6, seed=4))
            for _ in range(2)
        )
        assert read.tile_patches > 0
        np.testing.assert_array_equal(
            read.first_layer_bitexact(images), unread.first_layer_bitexact(images)
        )
