"""Tests for ramp sources, the ramp-compare converter and the basic sources."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.rng import (
    PseudoRandomSource,
    RampSource,
    ramp_compare_batch,
    ramp_compare_stream,
)


class TestBasicSources:
    def test_pseudo_random_reproducible(self):
        np.testing.assert_array_equal(
            PseudoRandomSource(seed=5).sequence(100),
            PseudoRandomSource(seed=5).sequence(100),
        )

    def test_pseudo_random_reset_noop(self):
        src = PseudoRandomSource(seed=5)
        a = src.sequence(10)
        src.reset()
        np.testing.assert_array_equal(a, src.sequence(10))

    def test_reprs(self):
        assert "PseudoRandomSource" in repr(PseudoRandomSource())


class TestRampSource:
    def test_ascending_sequence(self):
        np.testing.assert_allclose(
            RampSource(2).sequence(4), [0.0, 0.25, 0.5, 0.75]
        )

    def test_descending_sequence(self):
        np.testing.assert_allclose(
            RampSource(2, descending=True).sequence(4), [0.75, 0.5, 0.25, 0.0]
        )

    def test_wraps_after_period(self):
        seq = RampSource(2).sequence(8)
        np.testing.assert_allclose(seq[:4], seq[4:])

    def test_invalid_bits(self):
        with pytest.raises(ValueError):
            RampSource(0)


class TestRampCompare:
    def test_exact_ones_count(self):
        # Ramp conversion is exact: value k/N yields exactly k ones.
        for k in range(17):
            stream = ramp_compare_stream(k / 16, 16)
            assert stream.sum() == k

    def test_single_run_structure(self):
        stream = ramp_compare_stream(0.5, 16)
        # All ones form one contiguous run (maximal auto-correlation).
        transitions = np.abs(np.diff(stream.astype(int))).sum()
        assert transitions <= 2

    def test_clipping(self):
        assert ramp_compare_stream(1.5, 16).sum() == 16
        assert ramp_compare_stream(-0.5, 16).sum() == 0

    def test_descending_places_run_at_end(self):
        stream = ramp_compare_stream(0.25, 16, descending=True)
        assert stream[:12].sum() == 0
        assert stream[12:].sum() == 4

    def test_invalid_length(self):
        with pytest.raises(ValueError):
            ramp_compare_stream(0.5, 12)

    def test_batch_matches_scalar(self):
        values = np.array([[0.1, 0.5], [0.9, 0.0]])
        batch = ramp_compare_batch(values, 32)
        assert batch.shape == (2, 2, 32)
        for i in range(2):
            for j in range(2):
                np.testing.assert_array_equal(
                    batch[i, j], ramp_compare_stream(values[i, j], 32)
                )

    @given(
        st.floats(min_value=0.0, max_value=1.0),
        st.sampled_from([8, 16, 64, 256]),
    )
    @settings(max_examples=50, deadline=None)
    def test_quantization_error_bounded(self, value, length):
        stream = ramp_compare_stream(value, length)
        assert abs(stream.sum() / length - value) <= 1.0 / length
