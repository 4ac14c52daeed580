"""Tests for the LFSR number sources."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.rng import LFSR, LFSRSource, MAXIMAL_TAPS


class TestLFSR:
    @pytest.mark.parametrize("bits", [2, 3, 4, 5, 6, 7, 8])
    def test_maximal_period(self, bits):
        # A maximal-length n-bit LFSR must visit all 2**n - 1 non-zero states.
        cycle = LFSR(bits, seed=1).states((1 << bits) - 1)
        assert len(set(cycle.tolist())) == len(cycle)
        assert 0 not in cycle

    def test_zero_seed_rejected(self):
        with pytest.raises(ValueError):
            LFSR(4, seed=0)

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            LFSR(1)

    def test_unknown_width_requires_taps(self):
        with pytest.raises(ValueError):
            LFSR(25)
        lfsr = LFSR(4, taps=(4, 3))
        assert len(set(lfsr.states(15).tolist())) == 15

    def test_bad_taps_rejected(self):
        with pytest.raises(ValueError):
            LFSR(4, taps=(5, 1))

    def test_reset_restores_seed(self):
        lfsr = LFSR(6, seed=13)
        lfsr.states(2)
        lfsr.reset()
        assert lfsr.states(1)[0] == 13

    def test_states_deterministic(self):
        a = LFSR(8, seed=7).states(100)
        b = LFSR(8, seed=7).states(100)
        np.testing.assert_array_equal(a, b)

    def test_different_seeds_different_phases(self):
        a = LFSR(8, seed=1).states(50)
        b = LFSR(8, seed=100).states(50)
        assert not np.array_equal(a, b)

    @given(st.sampled_from(sorted(MAXIMAL_TAPS)), st.integers(min_value=1, max_value=100))
    @settings(max_examples=25, deadline=None)
    def test_state_never_zero(self, bits, seed):
        lfsr = LFSR(bits, seed=(seed % ((1 << bits) - 1)) + 1)
        states = lfsr.states(min(200, 4 * ((1 << bits) - 1)))
        assert np.all(states != 0)


class TestLFSRSource:
    def test_values_in_unit_interval(self):
        seq = LFSRSource(8).sequence(255)
        assert np.all(seq > 0.0)  # zero state never occurs
        assert np.all(seq < 1.0)

    def test_sequence_resets_each_call(self):
        src = LFSRSource(8, seed=3)
        np.testing.assert_array_equal(src.sequence(64), src.sequence(64))

    def test_nearly_uniform_over_period(self):
        src = LFSRSource(8)
        seq = src.sequence(255)
        # All non-zero grid points appear exactly once over one full period.
        assert len(np.unique(seq)) == 255

    def test_resolution_bits(self):
        assert LFSRSource(6).resolution_bits == 6
