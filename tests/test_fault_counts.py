"""The engines' evaluation paths, and faulted count-domain TFF trees.

A TFF node emits ``floor((ones_x + ones_y) / 2)`` ones whatever the
positions of its input bits, so a TFF tree whose leaf streams were corrupted
by stream faults is still reduced exactly from its leaf counts: under sparse
faults the leaf-table counts plus one correction per faulted input word,
under dense faults the halved leaf popcounts.  These tests pin the
``evaluation_path`` of both engines against the tree evaluation that
actually ran (spies on ``FilterBank.leaf_tables``, the engines'
``input_words``, ``TreePlan.reduce_counts`` and ``TreePlan.reduce_packed``),
both faulted count paths and the bipolar leaf tables against the stream
reduction and the byte-per-bit oracle, and the paths that still reduce
streams under faults.  The fault channels are flip rates on both sides of
``CORRECTIONS_SHARE``, plus a ``"sparse"`` one whose rate is scaled to just
below the crossover for the drawn precision, so faults are present on the
corrections path.
"""

import contextlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.faults import FaultSpec
from repro.sc import (
    MODES,
    BipolarDotProductEngine,
    StochasticDotProductEngine,
    new_sc_engine,
    old_sc_engine,
)
from repro.sc.dotproduct import CORRECTIONS_SHARE, FilterBank
from repro.sc.elements.adders import TreePlan

import fault_oracle
import sc_oracle
from tiles import forced_tile

FLIPS = FaultSpec(flip_rate=0.02, seed=3)
SPARSE_FLIPS = FaultSpec(flip_rate=1e-3, seed=3)

#: Flip rates on both sides of the crossover, with the TFF path each takes
#: from N = 64 up, where a word holds 64 cycles: 1e-4, 1e-3 and 4e-3 fault
#: 0.6%, 6.2% and 22.6% of the input words, 1e-2 and 1e-1 47% and ~100%.
FLIP_RATES = {1e-4: "corrections", 1e-3: "corrections", 4e-3: "corrections",
              1e-2: "popcounts", 1e-1: "popcounts"}
#: The differential suites' fault channels: each flip rate, and ``"sparse"``.
CHANNELS = [*FLIP_RATES, "sparse"]


def channel_spec(channel, precision, seed):
    """The spec of a channel; ``"sparse"`` sits just below the corrections crossover."""
    if channel == "sparse":
        dense = FaultSpec(flip_rate=0.03, seed=seed)
        return fault_oracle.sparse_spec(dense, 1 << precision, 0.9 * CORRECTIONS_SHARE)
    return FaultSpec(flip_rate=channel, seed=seed)


@contextlib.contextmanager
def spied():
    """Names of the tree-evaluation and stream-expansion methods that ran inside the block."""
    seen = set()
    with pytest.MonkeyPatch.context() as mp:
        for cls, name in (
            (FilterBank, "leaf_tables"),
            (StochasticDotProductEngine, "input_words"),
            (BipolarDotProductEngine, "input_words"),
            (TreePlan, "reduce_counts"),
            (TreePlan, "reduce_packed"),
        ):
            def spy(self, *args, _original=getattr(cls, name), _name=name, **kwargs):
                seen.add(_name)
                return _original(self, *args, **kwargs)

            mp.setattr(cls, name, spy)
        yield seen


def _inputs(seed, rows, taps, filters):
    rng = np.random.default_rng(seed)
    return rng.random((rows, taps)), rng.uniform(-1.0, 1.0, (filters, taps))


def _expected_path(adder, mode, faults, n_bits):
    """The rate rule: TFF trees correct leaf-table counts below the crossover share."""
    stream_faults = faults is not None and faults.flip_rate > 0.0
    if mode == "streams" or (stream_faults and adder == "mux"):
        return "streams"
    if not stream_faults:
        return "tables"
    sparse = faults.word_fault_share(n_bits) < CORRECTIONS_SHARE
    return "corrections" if sparse else "popcounts"


def _ran(adder, path):
    """The spied methods each path runs; the table and corrections paths expand no stream."""
    return {
        "streams": {"input_words", "reduce_packed"},
        "popcounts": {"input_words", "reduce_counts"},
        "corrections": {"leaf_tables", "reduce_counts"},
        "tables": {"leaf_tables", "reduce_counts"} if adder == "tff" else {"leaf_tables"},
    }[path]


#: Flip rates at precision 5: none (False), dense -- 48% of the input words
#: faulted -- (True) and sparse, 3.2% ("sparse").
STREAM_FAULTS = {False: 0.0, True: 0.02, "sparse": 1e-3}


@pytest.mark.parametrize("input_generator", ["ramp", "lfsr"])
@pytest.mark.parametrize("stream_faults", list(STREAM_FAULTS))
@pytest.mark.parametrize("mode", [None, *MODES])
@pytest.mark.parametrize("adder", ["tff", "mux"])
def test_evaluation_path_names_the_tree_evaluation_that_ran(
    adder, mode, stream_faults, input_generator
):
    spec = FaultSpec(flip_rate=STREAM_FAULTS[stream_faults], seed=3)

    def engine():
        return StochasticDotProductEngine(
            precision=5, adder=adder, input_generator=input_generator, seed=2, mode=mode,
            faults=spec,
        )

    path, reason = engine().evaluation_path
    assert reason
    assert path == _expected_path(adder, mode, spec, 32)
    if path in ("corrections", "popcounts"):
        assert path == ("corrections" if stream_faults == "sparse" else "popcounts")
        assert f"{spec.word_fault_share(32):.2%} of input words faulted" in reason
    assert engine()._use_count_mode == (path == "tables")
    values, kernels = _inputs(4, 5, 9, 3)
    with spied() as seen:
        engine().dot_filters(values, kernels)
    assert seen == _ran(adder, path)


@pytest.mark.parametrize("stream_faults", list(STREAM_FAULTS))
@pytest.mark.parametrize("mode", [None, *MODES])
@pytest.mark.parametrize("adder", ["tff", "mux"])
def test_bipolar_evaluation_path_names_the_tree_evaluation_that_ran(adder, mode, stream_faults):
    spec = FaultSpec(flip_rate=STREAM_FAULTS[stream_faults], seed=3)

    def engine():
        return BipolarDotProductEngine(precision=5, adder=adder, seed=2, mode=mode, faults=spec)

    path, reason = engine().evaluation_path
    assert reason
    assert path == _expected_path(adder, mode, spec, 32)
    assert engine()._use_count_mode == (path == "tables")
    values, kernels = _inputs(4, 5, 9, 3)
    with spied() as seen:
        engine().prepare_weights(kernels).evaluate(values)
    assert seen == _ran(adder, path)


@pytest.mark.parametrize(
    "engine, ran",
    [
        (new_sc_engine(6, faults=FLIPS), {"input_words", "reduce_counts"}),
        (old_sc_engine(6, faults=FLIPS), {"input_words", "reduce_packed"}),
        (new_sc_engine(6, faults=FLIPS, mode="streams"), {"input_words", "reduce_packed"}),
        (BipolarDotProductEngine(precision=6, faults=FLIPS), {"input_words", "reduce_counts"}),
        (
            BipolarDotProductEngine(precision=6, adder="mux", faults=FLIPS),
            {"input_words", "reduce_packed"},
        ),
        (new_sc_engine(6, faults=SPARSE_FLIPS), {"leaf_tables", "reduce_counts"}),
        (old_sc_engine(6, faults=SPARSE_FLIPS), {"input_words", "reduce_packed"}),
        (BipolarDotProductEngine(precision=6, faults=SPARSE_FLIPS), {"leaf_tables", "reduce_counts"}),
    ],
    ids=[
        "this_work", "old_sc", "this_work_streams", "bipolar_tff", "bipolar_mux",
        "this_work_sparse", "old_sc_sparse", "bipolar_tff_sparse",
    ],
)
def test_faulted_tff_bank_reduces_no_stream(engine, ran):
    values, kernels = _inputs(1, 12, 25, 4)
    bank = engine.prepare_weights(kernels)
    with spied() as seen:
        bank.evaluate(values)
    assert seen == ran


#: One engine per (encoding, evaluation path), at precision 4 (N = 16): 1e-3
#: flips fault ~1.6% of the input words, 5e-2 flips 56%.
PATH_ENGINES = {
    ("unipolar", "tables"): lambda: old_sc_engine(4),
    ("unipolar", "corrections"): lambda: new_sc_engine(4, faults=FaultSpec(flip_rate=1e-3)),
    ("unipolar", "popcounts"): lambda: new_sc_engine(4, faults=FaultSpec(flip_rate=5e-2)),
    ("unipolar", "streams"): lambda: old_sc_engine(4, faults=FaultSpec(flip_rate=1e-2)),
    ("bipolar", "tables"): lambda: BipolarDotProductEngine(precision=4),
    ("bipolar", "corrections"): lambda: BipolarDotProductEngine(
        precision=4, faults=FaultSpec(flip_rate=1e-3)
    ),
    ("bipolar", "popcounts"): lambda: BipolarDotProductEngine(
        precision=4, faults=FaultSpec(flip_rate=5e-2)
    ),
    ("bipolar", "streams"): lambda: BipolarDotProductEngine(
        precision=4, adder="mux", faults=FaultSpec(flip_rate=1e-2)
    ),
}


@pytest.mark.parametrize(
    "encoding, path", list(PATH_ENGINES), ids=[f"{e}-{p}" for e, p in PATH_ENGINES]
)
def test_bad_levels_fail_at_the_boundary(encoding, path):
    # Levels reach a bank through apply_faults and counts; the stream paths
    # expand them with input_words, whose table gather would read a wrong
    # row for a level outside [0, N] instead of failing.
    engine = PATH_ENGINES[encoding, path]()
    assert engine.evaluation_path[0] == path
    n = engine.length
    bank = engine.prepare_weights(np.linspace(-1.0, 1.0, 8).reshape(2, 4))

    def count(levels):
        return bank.counts(engine.apply_faults(np.asarray(levels)))

    count([[0, 3, n, 7]])
    with pytest.raises(TypeError, match="integer"):
        count([[0.5, 3.7, 17, -2]])
    with pytest.raises(TypeError, match="integer"):
        engine.input_words(np.array([0.5, 3.7, 300, -2]))
    for bad in (-2, n + 1, 300):
        with pytest.raises(ValueError, match=rf"must lie in \[0, {n}\]"):
            count([[0, 3, bad, 7]])
        with pytest.raises(ValueError, match=rf"must lie in \[0, {n}\]"):
            engine.input_words(np.array([0, bad]))


#: ``(precision, adder, flip rate, path)`` at N = 256 on both sides of the
#: crossover, MUX trees, and N = 32, where a word holds 32 cycles.
CROSSOVER_CASES = [
    *((8, "tff", rate, path) for rate, path in FLIP_RATES.items()),
    (8, "mux", 1e-3, "streams"),
    (5, "tff", 4e-3, "corrections"),
    (5, "tff", 1e-2, "popcounts"),
]


@pytest.mark.parametrize("encoding", ["unipolar", "bipolar"])
@pytest.mark.parametrize(
    "precision, adder, rate, path", CROSSOVER_CASES,
    ids=[f"N{1 << p}-{a}-{r:g}" for p, a, r, _ in CROSSOVER_CASES],
)
def test_flip_rates_on_both_sides_of_the_crossover(encoding, precision, adder, rate, path):
    """Each rate takes its path, and its counts equal the streams' and the oracle's."""
    rng = np.random.default_rng(8)
    low = 0.0 if encoding == "unipolar" else -1.0
    values = rng.uniform(low, 1.0, (40, 25))
    kernels = rng.uniform(-1.0, 1.0, (6, 25))
    spec = FaultSpec(flip_rate=rate, seed=5)
    if encoding == "unipolar":
        make, oracle = StochasticDotProductEngine, sc_oracle.dot_filters
    else:
        make, oracle = BipolarDotProductEngine, sc_oracle.bipolar_dot_filters

    def engine(mode=None):
        return make(precision=precision, adder=adder, seed=2, mode=mode, faults=spec)

    assert engine().evaluation_path[0] == path
    got = engine().prepare_weights(kernels).evaluate(values)
    np.testing.assert_array_equal(got, engine("streams").prepare_weights(kernels).evaluate(values))
    np.testing.assert_array_equal(got, oracle(engine(), values, kernels))


@settings(max_examples=120, deadline=None)
@given(
    channel=st.sampled_from(CHANNELS),
    precision=st.integers(2, 10),
    input_generator=st.sampled_from(["ramp", "lfsr"]),
    taps=st.integers(1, 40),
    filters=st.integers(1, 8),
    rows=st.integers(1, 6),
    tile=st.sampled_from([None, 1, 2, 5]),
    seed=st.integers(1, 1 << 16),
)
def test_faulted_tff_counts_match_streams_and_oracle(
    channel, precision, input_generator, taps, filters, rows, tile, seed
):
    spec = channel_spec(channel, precision, seed)
    values, kernels = _inputs(seed, rows, taps, filters)

    def engine(mode=None):
        return StochasticDotProductEngine(
            precision=precision, input_generator=input_generator, seed=seed,
            mode=mode, faults=spec,
        )

    with forced_tile(tile):
        got = engine().prepare_weights(kernels).evaluate(values)
    streams = engine("streams").prepare_weights(kernels).evaluate(values)
    oracle = sc_oracle.dot_filters(engine(), values, kernels)
    for counts, reference, expected in zip(got, streams, oracle):
        np.testing.assert_array_equal(counts, reference)
        np.testing.assert_array_equal(counts, expected)


@settings(max_examples=120, deadline=None)
@given(
    channel=st.sampled_from([None, *CHANNELS]),
    adder=st.sampled_from(["tff", "mux"]),
    precision=st.integers(2, 10),
    taps=st.integers(1, 40),
    filters=st.integers(1, 8),
    rows=st.integers(1, 6),
    tile=st.sampled_from([None, 1, 2, 5]),
    seed=st.integers(1, 1 << 16),
)
def test_bipolar_counts_match_streams_and_oracle(
    channel, adder, precision, taps, filters, rows, tile, seed
):
    spec = None if channel is None else channel_spec(channel, precision, seed)
    rng = np.random.default_rng(seed)
    values = rng.uniform(-1.0, 1.0, (rows, taps))
    kernels = rng.uniform(-1.0, 1.0, (filters, taps))

    def engine(mode=None):
        return BipolarDotProductEngine(
            precision=precision, adder=adder, seed=seed, mode=mode, faults=spec
        )

    with forced_tile(tile):
        got = engine().prepare_weights(kernels).evaluate(values)
    np.testing.assert_array_equal(got, engine("streams").prepare_weights(kernels).evaluate(values))
    np.testing.assert_array_equal(got, sc_oracle.bipolar_dot_filters(engine(), values, kernels))
