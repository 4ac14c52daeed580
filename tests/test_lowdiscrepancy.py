"""Tests for low-discrepancy number sources (van der Corput, Sobol)."""

import numpy as np
import pytest

from repro.rng import SobolSource, VanDerCorputSource, bit_reverse


class TestBitReverse:
    def test_known_values(self):
        assert bit_reverse(np.array([1]), 4)[0] == 8
        assert bit_reverse(np.array([0b1011]), 4)[0] == 0b1101

    def test_involution(self):
        values = np.arange(64)
        np.testing.assert_array_equal(bit_reverse(bit_reverse(values, 6), 6), values)


class TestVanDerCorput:
    def test_first_points(self):
        seq = VanDerCorputSource(3).sequence(8)
        np.testing.assert_allclose(
            seq, [0, 0.5, 0.25, 0.75, 0.125, 0.625, 0.375, 0.875]
        )

    def test_full_period_is_permutation_of_grid(self):
        bits = 6
        seq = VanDerCorputSource(bits).sequence(1 << bits)
        expected = np.arange(1 << bits) / (1 << bits)
        np.testing.assert_allclose(np.sort(seq), expected)

    def test_low_discrepancy_prefix_property(self):
        # Every prefix of length 2^k contains exactly one point per bin of
        # width 2^-k: the defining property that makes SNG error O(1/N).
        bits = 8
        seq = VanDerCorputSource(bits).sequence(1 << bits)
        for k in range(1, bits + 1):
            prefix = seq[: 1 << k]
            bins = np.floor(prefix * (1 << k)).astype(int)
            assert len(np.unique(bins)) == 1 << k

    def test_rejects_bad_bits(self):
        with pytest.raises(ValueError):
            VanDerCorputSource(0)

    def test_source_phase_offset(self):
        a = VanDerCorputSource(4).sequence(16)
        b = VanDerCorputSource(4, phase=3).sequence(16)
        np.testing.assert_allclose(np.sort(a), np.sort(b))
        assert not np.allclose(a, b)


class TestSobol:
    def test_dimension_zero_matches_van_der_corput_set(self):
        bits = 6
        sob = SobolSource(bits, dimension=0).sequence(1 << bits)
        vdc = VanDerCorputSource(bits).sequence(1 << bits)
        np.testing.assert_allclose(np.sort(sob), np.sort(vdc))

    @pytest.mark.parametrize("dimension", range(8))
    def test_all_dimensions_equidistributed(self, dimension):
        bits = 6
        seq = SobolSource(bits, dimension=dimension).sequence(1 << bits)
        # Over one full period every grid point appears exactly once.
        assert len(np.unique(np.round(seq * (1 << bits)).astype(int))) == 1 << bits

    def test_values_in_unit_interval(self):
        seq = SobolSource(8, dimension=3).sequence(500)
        assert np.all(seq >= 0.0) and np.all(seq < 1.0)

    def test_invalid_dimension(self):
        with pytest.raises(ValueError):
            SobolSource(8, dimension=99)

    def test_invalid_bits(self):
        with pytest.raises(ValueError):
            SobolSource(0)

    def test_pairwise_2d_coverage(self):
        # Two different dimensions jointly cover the unit square reasonably:
        # no quadrant should be empty over a full period.
        bits = 6
        a = SobolSource(bits, dimension=0).sequence(1 << bits)
        b = SobolSource(bits, dimension=1).sequence(1 << bits)
        quadrant = (a >= 0.5).astype(int) * 2 + (b >= 0.5).astype(int)
        assert set(np.unique(quadrant)) == {0, 1, 2, 3}
