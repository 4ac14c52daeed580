"""Comparator levels: the unipolar engine's prepared inputs.

Every input SNG of the unipolar engine compares its value against one shared
source sequence ``s`` (the ramp or an LFSR), so the engine
prepares an input as its level ``c = #{n : s[n] < v}`` and expands it into
streams only where a stream path needs them.  These tests pin that the
levels reproduce the comparator's streams bit for bit -- source ties
included (the value an LFSR repeats in every ``2**p``-cycle stream) -- and
that the leaf tables built on them give the stream path's counters at both
level dtypes.  The bipolar engine's van der Corput input
SNG is held to the same comparator contract at every source point.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.bitstream.packed import pack_bits, packed_popcount
from repro.rng import ComparatorSNG, LFSRSource, RampCompareSNG, level_dtype
from repro.sc import BipolarDotProductEngine, StochasticDotProductEngine, dotproduct

import sc_oracle

#: Input generators under test; ``lfsr_top`` is the LFSR seeded with all
#: ones, so the value its stream repeats is the top of the source range
#: (seed 1 repeats the bottom one) and level ``N - 1`` is never reached.
GENERATORS = ["ramp", "lfsr", "lfsr_top"]


def make_engine(generator, precision, seed=1):
    if generator == "lfsr_top":
        generator, seed = "lfsr", (1 << precision) - 1
    return StochasticDotProductEngine(precision=precision, input_generator=generator, seed=seed)


def assert_levels_match_comparator(engine, values):
    levels = engine.prepare_inputs(values)
    assert levels.shape == values.shape
    assert levels.dtype == level_dtype(engine.length)
    words = engine.input_words(levels)
    np.testing.assert_array_equal(words, pack_bits(sc_oracle.input_bits(engine, values)))
    np.testing.assert_array_equal(packed_popcount(words), levels)


def source_points(engine):
    """Every source value, its float neighbours and the range edges."""
    source = engine._input_sng().source.sequence(engine.length)
    return np.concatenate(
        [
            source,
            np.nextafter(source, -np.inf),
            np.nextafter(source, np.inf),
            [0.0, 1.0, -0.0, -0.25, 1.5, np.nextafter(1.0, 2.0)],
        ]
    )


@pytest.mark.parametrize("generator", GENERATORS)
@pytest.mark.parametrize("precision", range(2, 11))
def test_every_source_point_and_neighbour(generator, precision):
    engine = make_engine(generator, precision)
    assert_levels_match_comparator(engine, source_points(engine))


@pytest.mark.parametrize("precision", range(2, 11))
def test_van_der_corput_levels_at_every_source_point_and_neighbour(precision):
    # The bipolar engine's input SNG compares the ones-probabilities
    # (v + 1) / 2 against the van der Corput sequence.
    engine = BipolarDotProductEngine(precision=precision)
    sng = engine._input_sng()
    points = source_points(engine)
    levels = sng.levels(points, engine.length)
    assert levels.dtype == level_dtype(engine.length)
    words = engine.input_words(levels)
    np.testing.assert_array_equal(words, pack_bits(sng.generate_bits(points, engine.length)))
    np.testing.assert_array_equal(packed_popcount(words), levels)
    # The source points are dyadic, so 2 s - 1 maps back onto them exactly.
    source = sng.source.sequence(engine.length)
    np.testing.assert_array_equal(
        engine.prepare_inputs(2.0 * source - 1.0), levels[: source.size]
    )


@st.composite
def engines(draw):
    generator = draw(st.sampled_from(GENERATORS))
    precision = draw(st.integers(min_value=2, max_value=10))
    seed = draw(st.integers(min_value=1, max_value=1000))
    return make_engine(generator, precision, seed=seed)


@settings(max_examples=200, deadline=None)
@given(engine=engines(), data=st.data())
def test_levels_reproduce_comparator_streams(engine, data):
    source = engine._input_sng().source.sequence(engine.length)
    points = np.asarray(data.draw(st.lists(st.sampled_from(source.tolist()), max_size=6)))
    direction = data.draw(st.sampled_from([-np.inf, np.inf]))
    values = np.concatenate(
        [
            data.draw(st.lists(st.floats(0.0, 1.0), max_size=6)),
            points,
            np.nextafter(points, direction),
            data.draw(
                st.lists(
                    st.one_of(st.floats(-4.0, -1e-12), st.floats(1.0 + 1e-12, 4.0)),
                    max_size=3,
                )
            ),
        ]
    )
    assert_levels_match_comparator(engine, values.reshape(1, -1))


def test_input_words_follow_engine_field_changes():
    # The level-word tables are kept per input-SNG configuration; an engine
    # whose fields change reads the table of its new configuration.
    engine = make_engine("lfsr", 6, seed=1)
    for field, value in (
        ("seed", 2),
        ("precision", 5),
        ("input_generator", "ramp"),
        ("precision", 7),
    ):
        setattr(engine, field, value)
        n = engine.length
        if engine.input_generator == "ramp":
            sng = RampCompareSNG(engine.precision)
        else:
            sng = ComparatorSNG(LFSRSource(engine.precision, seed=engine.seed))
        levels = np.arange(n + 1)
        np.testing.assert_array_equal(engine.input_words(levels), sng.expand_levels(levels, n))


def test_level_word_gather_matches_comparison(monkeypatch):
    # Past LEVEL_TABLE_BYTES streams are compared cycle by cycle instead.
    engines = [make_engine(g, 7, seed=3) for g in GENERATORS]
    engines.append(BipolarDotProductEngine(precision=7))
    levels = np.arange(129).reshape(3, 43)
    gathered = [engine.input_words(levels) for engine in engines]
    monkeypatch.setattr(dotproduct, "LEVEL_TABLE_BYTES", 0)
    dotproduct._level_word_table.cache_clear()
    try:
        for engine, words in zip(engines, gathered):
            assert dotproduct._level_word_table(engine._input_source()) is None
            np.testing.assert_array_equal(engine.input_words(levels), words)
    finally:
        dotproduct._level_word_table.cache_clear()


@pytest.mark.parametrize("generator", ["lfsr", "lfsr_top"])
@pytest.mark.parametrize("precision", [3, 5, 8])
def test_lfsr_source_repeats_one_value(precision, generator):
    # The premise of the tie coverage: the LFSR's period is 2**p - 1, so its
    # 2**p-cycle stream repeats exactly one value, its first.
    engine = make_engine(generator, precision, seed=3)
    source = engine._input_sng().source.sequence(engine.length)
    values, counts = np.unique(source, return_counts=True)
    assert values.size == source.size - 1
    assert values[counts == 2].tolist() == [source[0]]
    if generator == "lfsr_top":
        # The tied top value steps the level from N - 2 straight to N.
        assert source[0] == values[-1] == 1.0 - 1.0 / engine.length
        points = np.concatenate([values, np.nextafter(values, np.inf)])
        levels = engine._input_sng().levels(points, engine.length)
        assert engine.length in levels and engine.length - 1 not in levels


def test_sort_order_is_stable_under_ties():
    sng = ComparatorSNG(LFSRSource(6, seed=3))
    source = sng.source.sequence(64)
    order = sng.sort_order(64)
    np.testing.assert_array_equal(source[order], np.sort(source))
    for value in np.unique(source):
        tied = order[source[order] == value]
        np.testing.assert_array_equal(tied, np.sort(tied))


def test_level_dtype_switches_above_precision_14():
    assert level_dtype(1 << 14) == np.int16
    assert level_dtype(1 << 15) == np.int32


@pytest.mark.parametrize("adder", ["tff", "mux"])
def test_int32_levels_and_tables_match_streams(adder):
    # Precision 15: int32 levels and tables, leaf counts beyond the int16
    # halving range of TreePlan.reduce_counts.
    rng = np.random.default_rng(15)
    x = np.concatenate([rng.random((3, 3)), np.ones((1, 3))])
    kernels = np.array([[1.0, -0.75, 0.5]])
    engines = {
        mode: StochasticDotProductEngine(precision=15, adder=adder, seed=2, mode=mode)
        for mode in (None, "streams")
    }
    assert engines[None].prepare_inputs(x).dtype == np.int32
    counted = engines[None].dot_filters(x, kernels)
    streamed = engines["streams"].dot_filters(x, kernels)
    np.testing.assert_array_equal(counted.positive_count, streamed.positive_count)
    np.testing.assert_array_equal(counted.negative_count, streamed.negative_count)
    assert counted.positive_count.max() >= 1 << 13


@pytest.mark.parametrize("adder", ["tff", "mux"])
def test_full_scale_leaf_counts_at_precision_14(adder):
    # int16 levels and tables hold the full-scale leaf count 2**14; a TFF
    # level adds two of them, which only the halving dtype (int32) holds.
    x = np.array([[1.0, 1.0, 1.0], [1.0, 0.5, 0.0]])
    kernels = np.array([[1.0, 1.0, 1.0], [-1.0, -1.0, 0.5]])
    engines = {
        mode: StochasticDotProductEngine(precision=14, adder=adder, seed=2, mode=mode)
        for mode in (None, "streams")
    }
    assert engines[None].prepare_inputs(x).dtype == np.int16
    counted = engines[None].dot_filters(x, kernels)
    streamed = engines["streams"].dot_filters(x, kernels)
    np.testing.assert_array_equal(counted.positive_count, streamed.positive_count)
    np.testing.assert_array_equal(counted.negative_count, streamed.negative_count)
    assert counted.positive_count.min() >= 0


def test_counts_validates_prepared_inputs():
    engine = StochasticDotProductEngine(precision=4)
    bank = engine.prepare_weights(np.full((2, 3), 0.5))
    with pytest.raises(ValueError, match=r"\[0, 16\]"):
        bank.counts(np.array([[0, 17, 3]], dtype=np.int16))
    with pytest.raises(ValueError, match=r"\[0, 16\]"):
        bank.counts(np.array([[0, -1, 3]], dtype=np.int16))
    with pytest.raises(TypeError, match="levels"):
        bank.counts(np.full((1, 3), 0.5))
    # Levels and their expanded streams evaluate to the same counters.
    levels = engine.prepare_inputs(np.array([[0.1, 0.6, 0.9]]))
    by_levels = bank.counts(levels)
    by_streams = bank.counts(engine.input_words(levels))
    np.testing.assert_array_equal(by_levels[0], by_streams[0])
    np.testing.assert_array_equal(by_levels[1], by_streams[1])


def test_leaf_tables_are_built_once_per_bank():
    engine = StochasticDotProductEngine(precision=5, adder="mux", input_generator="lfsr")
    bank = engine.prepare_weights(np.random.default_rng(0).uniform(-1, 1, (3, 7)))
    tables = bank.leaf_tables()
    assert tables.shape == (7, 33, 6)
    assert tables.dtype == np.int16
    assert bank.leaf_tables() is tables
    # Level 0 selects no cycle; the top level is the masked weight count.
    assert not tables[:, 0].any()
    masked = bank.lane_words & bank.plan.leaf_masks(32, packed=True)
    np.testing.assert_array_equal(tables[:, -1], packed_popcount(masked).T)
