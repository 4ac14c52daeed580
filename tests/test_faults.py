"""Tests for the deterministic fault-injection subsystem (:mod:`repro.faults`).

Covers the mask generator's statistics and coordinate determinism, the
``((w | stuck1) & ~stuck0) ^ flips`` composition contract, bit-identity of
faulted engines and convolutions with the byte-per-bit reference and across
tilings, the mode interaction (stream faults rule out the leaf tables),
stream injection helpers, netlist stuck-at faults against the per-cycle
oracle, stuck SNG register cells, the matched binary-word flip baseline, and
the degradation sweep.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.bitstream import Bitstream
from repro.bitstream.packed import pack_bits, unpack_bits
from repro.faults import (
    FaultPlan,
    FaultSpec,
    NetlistFaults,
    bernoulli_words,
    burst_words,
    coordinate_words,
    flip_binary_words,
    inject_stream,
)
from repro.faults.sweep import (
    FaultSweepConfig,
    parse_rates,
    run_fault_sweep,
    write_artifact,
)
from repro.netlist import Netlist, build_sc_dot_product, simulate, simulate_batch
from repro.rng.lfsr import LFSR
from repro.sc.bipolar import BipolarDotProductEngine
from repro.sc.convolution import StochasticConv2D
from repro.sc.dotproduct import new_sc_engine, old_sc_engine
from repro.utils.windows import extract_patches, patches_to_map

import fault_oracle
import netlist_oracle
import sc_oracle
from tiles import SINGLE_TILE, forced_tile


def _unpack(words, n_bits):
    return unpack_bits(np.asarray(words, dtype=np.uint64), n_bits)


# --------------------------------------------------------------------------- #
# mask generator
# --------------------------------------------------------------------------- #
class TestMasks:
    def test_bernoulli_rate_statistics(self):
        for rate in (0.03, 0.125, 0.5, 0.9):
            words = bernoulli_words(rate, seed=1, salt=7, n_streams=40,
                                    taps=5, n_bits=512)
            bits = _unpack(words, 512)
            assert bits.mean() == pytest.approx(rate, abs=0.01)

    def test_bernoulli_extremes(self):
        zeros = bernoulli_words(0.0, 0, 1, 3, 2, 100)
        ones = bernoulli_words(1.0, 0, 1, 3, 2, 100)
        assert not _unpack(zeros, 100).any()
        assert _unpack(ones, 100).all()

    def test_coordinate_determinism_and_offset(self):
        # Generating streams [0, 8) in one call must equal two offset calls.
        whole = bernoulli_words(0.2, seed=3, salt=1, n_streams=8, taps=3,
                                n_bits=192)
        head = bernoulli_words(0.2, seed=3, salt=1, n_streams=5, taps=3,
                               n_bits=192)
        tail = bernoulli_words(0.2, seed=3, salt=1, n_streams=3, taps=3,
                               n_bits=192, offset=5)
        assert np.array_equal(whole, np.concatenate([head, tail], axis=0))

    def test_distinct_channels_decorrelated(self):
        a = bernoulli_words(0.5, seed=9, salt=1, n_streams=4, taps=2, n_bits=256)
        b = bernoulli_words(0.5, seed=9, salt=2, n_streams=4, taps=2, n_bits=256)
        assert not np.array_equal(a, b)
        assert np.array_equal(a, bernoulli_words(0.5, 9, 1, 4, 2, 256))

    def test_coordinate_words_shape(self):
        grid = coordinate_words(seed=0, salt=5, n_streams=3, taps=4, n_bits=130)
        assert grid.shape == (3, 4, 3)  # ceil(130 / 64) == 3 words

    def test_burst_run_lengths(self):
        words = burst_words(0.01, length=6, seed=2, salt=4, n_streams=30,
                            taps=1, n_bits=1024)
        bits = _unpack(words, 1024)
        # Bursts smear each seed bit across up to ``length`` positions, so
        # the hit rate must land well above the per-bit seed rate.
        assert bits.mean() > 0.02
        assert bits.mean() < 0.12

    def test_tail_bits_always_clear(self):
        for n_bits in (1, 63, 64, 65, 127, 200):
            words = bernoulli_words(1.0, 0, 1, 2, 2, n_bits)
            rem = n_bits % 64
            if rem:
                assert int(words[..., -1].max()) < (1 << rem)


#: Rates at the edges of the 31-digit bit slicing and at the sweep's decades.
EDGE_RATES = [0.0, 2**-31, 1e-4, 1e-3, 1e-2, 0.1, 0.5, 0.75, 1 - 2**-31, 1.0]


@settings(max_examples=150, deadline=None)
@given(
    rate=st.one_of(st.sampled_from(EDGE_RATES), st.floats(0.0, 1.0)),
    length=st.integers(1, 70),
    seed=st.integers(0, 2**63),
    salt=st.integers(0, 7),
    n_streams=st.integers(0, 5),
    taps=st.integers(0, 4),
    n_bits=st.integers(0, 300),
    offset=st.integers(0, 2**40),
)
def test_masks_match_the_plain_horner_oracle(
    rate, length, seed, salt, n_streams, taps, n_bits, offset
):
    """The gated, in-place generator gives the oracle's bits for every argument."""
    args = (seed, salt, n_streams, taps, n_bits, offset)
    got = bernoulli_words(rate, *args)
    expected = fault_oracle.bernoulli_words(rate, *args)
    assert got.dtype == expected.dtype and got.shape == expected.shape
    np.testing.assert_array_equal(got, expected)
    np.testing.assert_array_equal(
        burst_words(rate, length, *args), fault_oracle.burst_words(rate, length, *args)
    )


# --------------------------------------------------------------------------- #
# FaultSpec / FaultPlan
# --------------------------------------------------------------------------- #
class TestFaultSpec:
    def test_rate_validation(self):
        with pytest.raises(ValueError):
            FaultSpec(flip_rate=-0.1)
        with pytest.raises(ValueError):
            FaultSpec(stuck_zero_rate=1.5)
        with pytest.raises(ValueError):
            FaultSpec(burst_rate=0.1, burst_length=0)
        with pytest.raises(ValueError):
            FaultSpec(sensor_noise_sigma=-1.0)
        with pytest.raises(ValueError):
            FaultSpec(sng_stuck_cells=((0, 2),))

    def test_activity_flags(self):
        assert not FaultSpec().active
        assert FaultSpec(flip_rate=0.1).corrupts_streams
        noise_only = FaultSpec(sensor_noise_sigma=0.05)
        assert noise_only.active and not noise_only.corrupts_streams
        cells_only = FaultSpec(sng_stuck_cells=((1, 0),))
        assert cells_only.active and not cells_only.corrupts_streams

    def test_composition_order(self):
        # Contract: ((w | stuck1) & ~stuck0) ^ flips -- stuck-at-0 dominates
        # stuck-at-1, and flips act on the stuck value.
        base = np.random.default_rng(0).integers(0, 2, (2, 3, 128), dtype=np.int64)
        prepared = pack_bits(base.astype(np.uint8))

        all_one = FaultSpec(stuck_one_rate=1.0).plan().apply(prepared, 128)
        assert _unpack(all_one, 128).all()

        dominated = (
            FaultSpec(stuck_one_rate=1.0, stuck_zero_rate=1.0)
            .plan().apply(prepared, 128)
        )
        assert not _unpack(dominated, 128).any()

        inverted = (
            FaultSpec(stuck_one_rate=1.0, stuck_zero_rate=1.0, flip_rate=1.0)
            .plan().apply(prepared, 128)
        )
        assert _unpack(inverted, 128).all()

    def test_packed_and_unpacked_apply_identical(self):
        # Packed injection against the byte-level composition of the same
        # (unpacked) masks.
        spec = FaultSpec(flip_rate=0.05, stuck_zero_rate=0.02,
                         stuck_one_rate=0.02, burst_rate=0.01, seed=11)
        bits = np.random.default_rng(1).integers(0, 2, (4, 5, 200),
                                                 dtype=np.int64).astype(np.uint8)
        packed = spec.plan().apply(pack_bits(bits), 200)
        s0, s1, fl = (unpack_bits(m, 200) for m in spec.plan().masks(4, 5, 200, 0))
        assert np.array_equal(unpack_bits(packed, 200), ((bits | s1) & (1 - s0)) ^ fl)

    def test_apply_is_offset_composable(self):
        spec = FaultSpec(flip_rate=0.1, seed=3)
        words = pack_bits(np.random.default_rng(2).integers(0, 2, (6, 2, 100),
                                                            dtype=np.int64).astype(np.uint8))
        whole = spec.plan().apply(words, 100)
        head = spec.plan().apply(words[:4], 100)
        tail = spec.plan().apply(words[4:], 100, offset=4)
        assert np.array_equal(whole, np.concatenate([head, tail], axis=0))

    def test_empty_apply_is_noop(self):
        plan = FaultSpec(flip_rate=0.5).plan()
        empty = np.zeros((0, 3, 2), dtype=np.uint64)
        assert plan.apply(empty, 100).shape == empty.shape
        zero_taps = np.zeros((2, 0, 2), dtype=np.uint64)
        assert plan.apply(zero_taps, 100).shape == zero_taps.shape
        zero_length = np.zeros((2, 3, 0), dtype=np.uint64)
        assert plan.apply(zero_length, 0).shape == zero_length.shape

    def test_plan_is_frozen_dataclass(self):
        plan = FaultSpec(flip_rate=0.5).plan()
        assert isinstance(plan, FaultPlan)
        with pytest.raises(dataclasses.FrozenInstanceError):
            plan.spec = None


class TestInjectStream:
    def test_packed_unpacked_equivalent(self):
        # A Bitstream is corrupted exactly like the packed words of stream 0.
        spec = FaultSpec(flip_rate=0.2, seed=5)
        stream = Bitstream.from_random(0.5, 300, rng=7, encoding="bipolar")
        faulted = inject_stream(stream, spec)
        words = spec.plan().apply(pack_bits(stream.bits)[np.newaxis], 300)[0]
        assert np.array_equal(faulted.bits, unpack_bits(words, 300))
        assert faulted != stream
        assert faulted.encoding == stream.encoding

    def test_index_selects_the_stream_coordinate(self):
        spec = FaultSpec(flip_rate=0.3, seed=1)
        stream = Bitstream.from_random(0.5, 256, rng=3)
        assert inject_stream(stream, spec, index=0) != inject_stream(
            stream, spec, index=1
        )

    def test_empty_stream_is_noop(self):
        spec = FaultSpec(flip_rate=1.0)
        empty = Bitstream(np.zeros(0, dtype=np.uint8))
        assert inject_stream(empty, spec) is empty

    def test_inactive_spec_is_noop(self):
        stream = Bitstream.from_random(0.5, 128, rng=0)
        assert inject_stream(stream, FaultSpec()) is stream

    def test_type_error(self):
        with pytest.raises(TypeError):
            inject_stream([0, 1, 0], FaultSpec(flip_rate=0.5))


# --------------------------------------------------------------------------- #
# engines and convolution
# --------------------------------------------------------------------------- #
class TestEngineFaults:
    def setup_method(self):
        self.rng = np.random.default_rng(42)
        self.x = self.rng.random((12, 9))
        self.w = self.rng.uniform(-1, 1, 9)

    def test_backends_bit_identical_under_faults(self):
        # The packed engine against the byte-per-bit reference fed the same
        # (unpacked) fault masks.
        spec = FaultSpec(flip_rate=0.02, stuck_one_rate=0.01, seed=9)
        result = new_sc_engine(precision=6, faults=spec).dot(self.x, self.w)
        pos, neg = sc_oracle.dot(new_sc_engine(precision=6, faults=spec), self.x, self.w)
        assert np.array_equal(result.positive_count, pos)
        assert np.array_equal(result.negative_count, neg)

    def test_repeated_dot_is_deterministic(self):
        engine = new_sc_engine(precision=6, faults=FaultSpec(flip_rate=0.05, seed=2))
        a = engine.dot(self.x, self.w)
        b = engine.dot(self.x, self.w)
        assert np.array_equal(a.positive_count, b.positive_count)
        assert np.array_equal(a.negative_count, b.negative_count)

    def test_faults_actually_perturb(self):
        clean = new_sc_engine(precision=6).dot(self.x, self.w)
        faulted = new_sc_engine(
            precision=6, faults=FaultSpec(stuck_one_rate=0.3, seed=1)
        ).dot(self.x, self.w)
        assert not (
            np.array_equal(clean.positive_count, faulted.positive_count)
            and np.array_equal(clean.negative_count, faulted.negative_count)
        )

    def test_auto_mode_resolves_to_streams(self):
        engine = new_sc_engine(precision=6, faults=FaultSpec(flip_rate=0.01))
        assert engine._stream_faults_active
        assert not engine._use_count_mode
        assert new_sc_engine(precision=6)._use_count_mode
        # Non-stream fault channels keep the count-domain shortcut legal.
        cells_only = new_sc_engine(precision=6,
                                   faults=FaultSpec(sng_stuck_cells=((1, 1),)))
        assert not cells_only._stream_faults_active
        assert cells_only._use_count_mode

    def test_faults_type_checked(self):
        with pytest.raises(TypeError):
            new_sc_engine(precision=6, faults={"flip_rate": 0.1})

    def test_bipolar_engine_faults(self):
        values = self.rng.uniform(-1, 1, (8, 5))
        weights = self.rng.uniform(-1, 1, 5)
        spec = FaultSpec(flip_rate=0.05, seed=4)
        engine = BipolarDotProductEngine(precision=6, faults=spec)
        faulted = engine.dot(values, weights).count
        assert np.array_equal(faulted, sc_oracle.bipolar_dot(engine, values, weights))
        clean = BipolarDotProductEngine(precision=6).dot(values, weights)
        assert not np.array_equal(clean.count, faulted)

    def test_sng_stuck_cells_thread_into_generator(self):
        values = self.rng.random((6, 9))
        weights = self.rng.uniform(-1, 1, 9)
        spec = FaultSpec(sng_stuck_cells=((0, 1), (3, 0)))
        faulted = old_sc_engine(precision=6, faults=spec).dot(values, weights)
        pos, _ = sc_oracle.dot(old_sc_engine(precision=6, faults=spec), values, weights)
        assert np.array_equal(faulted.positive_count, pos)
        clean = old_sc_engine(precision=6).dot(values, weights)
        assert not np.array_equal(clean.positive_count, faulted.positive_count)


class TestConvolutionFaults:
    def test_tiling_and_backend_invariance(self):
        # Every tiling equals the byte-per-bit reference over all patches.
        rng = np.random.default_rng(7)
        images = rng.random((2, 10, 10))
        kernels = rng.uniform(-1, 1, (3, 3, 3))
        spec = FaultSpec(flip_rate=0.02, burst_rate=0.005, seed=13)
        pos, neg = (
            patches_to_map(c, (10, 10))
            for c in sc_oracle.dot_filters(
                new_sc_engine(precision=6, faults=spec),
                extract_patches(images, (3, 3), 1, 1),
                kernels.reshape(3, 9),
            )
        )
        for tile in (None, 7, 13, SINGLE_TILE):
            engine = new_sc_engine(precision=6, faults=spec)
            layer = StochasticConv2D(kernels, engine=engine, padding=1)
            with forced_tile(tile):
                result = layer.forward(images)
            assert np.array_equal(result.positive_count, pos)
            assert np.array_equal(result.negative_count, neg)


# --------------------------------------------------------------------------- #
# netlist stuck-at faults
# --------------------------------------------------------------------------- #
def _toy_netlist():
    net = Netlist("toy_faults")
    a = net.add_input("a")
    b = net.add_input("b")
    (c,) = net.add_cell("AND2", [a, b], outputs=["c"])
    net.add_output(c)
    return net


class TestNetlistFaults:
    def test_stuck_at_forces_constant_output(self):
        net = _toy_netlist()
        stim = {
            "a": np.ones(32, dtype=np.uint8),
            "b": np.zeros(32, dtype=np.uint8),
        }
        result = simulate(net, stim, faults={"c": 1})
        assert result.waveforms["c"].all()
        reference = netlist_oracle.simulate(net, stim, faults={"c": 1})
        assert np.array_equal(result.waveforms["c"], reference.waveforms["c"])
        assert result.toggles == reference.toggles
        clean = simulate(net, stim)
        assert not clean.waveforms["c"].any()

    def test_unknown_net_rejected(self):
        net = _toy_netlist()
        stim = {"a": np.zeros(8, dtype=np.uint8), "b": np.zeros(8, dtype=np.uint8)}
        with pytest.raises(ValueError, match="do not exist"):
            simulate(net, stim, faults={"nonexistent": 1})

    def test_matches_oracle_on_real_circuit(self):
        net = build_sc_dot_product(9, 5)
        rng = np.random.default_rng(3)
        stim = {
            name: rng.integers(0, 2, 64, dtype=np.int64).astype(np.uint8)
            for name in net.primary_inputs
        }
        victim = net.instances[len(net.instances) // 3].outputs[0]
        faults = NetlistFaults({victim: 0})
        packed = simulate(net, stim, faults=faults)
        reference = netlist_oracle.simulate(net, stim, faults=faults)
        for out in net.primary_outputs:
            assert np.array_equal(packed.waveforms[out], reference.waveforms[out])
        assert packed.toggles == reference.toggles
        clean = simulate(net, stim)
        assert any(
            not np.array_equal(packed.waveforms[out], clean.waveforms[out])
            for out in net.primary_outputs
        )

    def test_batched_faults_and_zero_traces(self):
        net = _toy_netlist()
        rng = np.random.default_rng(5)
        stim = {
            name: rng.integers(0, 2, (3, 40), dtype=np.int64).astype(np.uint8)
            for name in net.primary_inputs
        }
        result = simulate_batch(net, stim, faults={"c": 1})
        assert result.waveforms["c"].all()
        reference = netlist_oracle.simulate_batch(net, stim, faults={"c": 1})
        assert np.array_equal(result.waveforms["c"], reference.waveforms["c"])
        for name in reference.toggles:
            assert np.array_equal(result.toggles[name], reference.toggles[name])
        empty = {name: np.zeros((0, 16), dtype=np.uint8)
                 for name in net.primary_inputs}
        with pytest.raises(ValueError, match="at least one trace"):
            simulate_batch(net, empty)

    def test_coerce_and_normalization(self):
        faults = NetlistFaults.coerce({"n1": 1, "n2": 0})
        assert faults.stuck_at == {"n1": 1, "n2": 0}
        assert NetlistFaults.coerce(None) is None
        assert not NetlistFaults({})
        with pytest.raises(ValueError):
            NetlistFaults({"n": 2})


class TestLFSRStuckCells:
    def test_cell_forced(self):
        clean = LFSR(bits=8, seed=1)
        stuck = LFSR(bits=8, seed=1, stuck_cells=((2, 1),))
        assert np.all((stuck.states(21) >> 2) & 1 == 1)
        # The clean register visits states with bit 2 low.
        assert np.any((clean.states(21) >> 2) & 1 == 0)

    def test_validation(self):
        with pytest.raises(ValueError):
            LFSR(bits=8, seed=1, stuck_cells=((8, 1),))
        with pytest.raises(ValueError):
            LFSR(bits=8, seed=1, stuck_cells=((0, 5),))


# --------------------------------------------------------------------------- #
# binary baseline
# --------------------------------------------------------------------------- #
class TestBinaryFlips:
    def test_rate_zero_identity_and_determinism(self):
        values = np.array([[-100, 0, 77], [5, -1, 1023]], dtype=np.int64)
        assert np.array_equal(flip_binary_words(values, 12, 0.0, 0), values)
        a = flip_binary_words(values, 12, 0.3, seed=6)
        b = flip_binary_words(values, 12, 0.3, seed=6)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, flip_binary_words(values, 12, 0.3, seed=7))

    def test_round_trip_via_double_flip(self):
        # XOR-ing the same mask twice restores the original words.
        values = np.arange(-32, 32, dtype=np.int64)
        once = flip_binary_words(values, 8, 0.5, seed=3)
        masks = (values.view(np.uint64) ^ once.view(np.uint64))
        twice = once.view(np.uint64) ^ masks
        assert np.array_equal(twice.view(np.int64), values)

    def test_results_stay_in_range(self):
        values = np.array([-64, 63], dtype=np.int64)
        flipped = flip_binary_words(values, 7, 1.0, seed=0)
        assert flipped.min() >= -64 and flipped.max() <= 63

    def test_validation(self):
        with pytest.raises(ValueError):
            flip_binary_words(np.array([1000], dtype=np.int64), 8, 0.1, 0)
        with pytest.raises(ValueError):
            flip_binary_words(np.array([0]), 64, 0.1, 0)
        with pytest.raises(TypeError):
            flip_binary_words(np.array([0.5]), 8, 0.1, 0)


# --------------------------------------------------------------------------- #
# degradation sweep
# --------------------------------------------------------------------------- #
class TestSweep:
    def test_quick_sweep_structure(self, tmp_path):
        config = FaultSweepConfig(
            rates=(0.0, 1e-2), precision=5, images=1, filters=2, kernel=3,
            trials=1,
        )
        result = run_fault_sweep(config)
        assert len(result.rows) == 2
        clean_row = result.rows[0]
        assert clean_row["sc_sign_agreement"] == 1.0
        assert clean_row["binary_sign_agreement"] == 1.0
        assert clean_row["sc_value_rmse"] == 0.0
        for row in result.rows:
            assert set(row) == {
                "rate", "binary_word_rate", "sc_sign_agreement",
                "binary_sign_agreement", "sc_value_rmse", "binary_value_rmse",
            }
        artifact = tmp_path / "BENCH_faults.json"
        write_artifact(result, artifact)
        import json

        data = json.loads(artifact.read_text())
        assert data["fault_sweep"]["rows"] == result.rows
        assert data["fault_sweep"]["accumulator_bits"] == 2 * 5 + 5

    def test_parse_rates(self):
        assert parse_rates("0,1e-3, 0.5") == (0.0, 1e-3, 0.5)
        with pytest.raises(ValueError):
            parse_rates("abc")
        with pytest.raises(ValueError):
            parse_rates("")

    def test_config_validation(self):
        with pytest.raises(ValueError):
            FaultSweepConfig(rates=())
        with pytest.raises(ValueError):
            FaultSweepConfig(rates=(2.0,))
        with pytest.raises(ValueError):
            FaultSweepConfig(images=0)
        with pytest.raises(ValueError):
            FaultSweepConfig(trials=0)
