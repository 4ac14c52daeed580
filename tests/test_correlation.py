"""Tests for stochastic correlation metrics."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.bitstream import (
    Bitstream,
    autocorrelation,
    stochastic_cross_correlation,
)
from repro.rng import ramp_compare_stream


class TestSCC:
    def test_identical_streams_fully_correlated(self):
        x = Bitstream("11001010")
        assert stochastic_cross_correlation(x, x) == pytest.approx(1.0)

    def test_complementary_streams_anticorrelated(self):
        x = Bitstream("11110000")
        assert stochastic_cross_correlation(x, Bitstream("00001111")) == pytest.approx(-1.0)

    def test_independent_long_streams_near_zero(self):
        rng = np.random.default_rng(0)
        x = (rng.random(4096) < 0.5).astype(np.uint8)
        y = (rng.random(4096) < 0.5).astype(np.uint8)
        assert abs(stochastic_cross_correlation(x, y)) < 0.05

    def test_constant_stream_returns_zero(self):
        assert stochastic_cross_correlation(Bitstream("1111"), Bitstream("0101")) == 0.0

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            stochastic_cross_correlation(np.array([]), np.array([]))

    @given(st.lists(st.integers(0, 1), min_size=4, max_size=64))
    def test_scc_bounded(self, bits):
        x = np.array(bits, dtype=np.uint8)
        y = np.roll(x, 1)
        assert -1.0 - 1e-9 <= stochastic_cross_correlation(x, y) <= 1.0 + 1e-9


class TestAutocorrelation:
    def test_ramp_streams_heavily_autocorrelated(self):
        # Paper Section IV-A: ramp-compare conversion produces heavily
        # auto-correlated streams (a single run of ones).
        stream = ramp_compare_stream(0.5, 256)
        assert autocorrelation(stream, lag=1) > 0.9

    def test_random_streams_weakly_autocorrelated(self):
        rng = np.random.default_rng(1)
        stream = (rng.random(4096) < 0.5).astype(np.uint8)
        assert abs(autocorrelation(stream, lag=1)) < 0.05

    def test_lag_zero_is_one_for_varying_stream(self):
        assert autocorrelation(Bitstream("0101"), lag=0) == 1.0

    def test_constant_stream_is_zero(self):
        assert autocorrelation(Bitstream("1111"), lag=1) == 0.0

    def test_alternating_stream_negative(self):
        assert autocorrelation(Bitstream("01010101"), lag=1) < -0.9

    def test_invalid_lag(self):
        with pytest.raises(ValueError):
            autocorrelation(Bitstream("0101"), lag=-1)
        with pytest.raises(ValueError):
            autocorrelation(Bitstream("0101"), lag=4)
