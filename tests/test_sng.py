"""Tests for stochastic number generators and the Table 1 scheme factory."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.bitstream import Bitstream
from repro.rng import (
    ComparatorSNG,
    NumberSource,
    RampCompareSNG,
    TABLE1_SCHEMES,
    VanDerCorputSource,
    sng_pair,
)


class _ConstantSource(NumberSource):
    """A source that always emits ``value``."""

    def __init__(self, value):
        self.value = value

    def sequence(self, length):
        return np.full(length, self.value)


class TestComparatorSNG:
    def test_generates_bitstream(self):
        sng = ComparatorSNG(VanDerCorputSource(4))
        stream = sng.generate(0.5, 16)
        assert isinstance(stream, Bitstream)
        assert len(stream) == 16

    def test_low_discrepancy_exactness(self):
        # With a van der Corput source, every representable value is encoded
        # exactly over one full period (the O(1/N) property).
        sng = ComparatorSNG(VanDerCorputSource(6))
        for k in range(0, 65, 7):
            stream = sng.generate(k / 64, 64)
            assert stream.ones == k

    def test_constant_source_threshold_behaviour(self):
        sng = ComparatorSNG(_ConstantSource(0.4))
        assert sng.generate(0.5, 8).ones == 8
        assert sng.generate(0.3, 8).ones == 0

    def test_bipolar_encoding(self):
        sng = ComparatorSNG(VanDerCorputSource(6), encoding="bipolar")
        stream = sng.generate(0.0, 64)
        assert stream.value == pytest.approx(0.0)
        assert stream.encoding == "bipolar"

    def test_generate_bits_batch_shape(self):
        sng = ComparatorSNG(VanDerCorputSource(4))
        values = np.array([[0.0, 0.5], [0.25, 1.0]])
        bits = sng.generate_bits(values, 16)
        assert bits.shape == (2, 2, 16)
        assert bits[0, 0].sum() == 0
        assert bits[1, 1].sum() == 16

    @given(st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=40, deadline=None)
    def test_encoding_error_bounded_by_lsb(self, value):
        sng = ComparatorSNG(VanDerCorputSource(8))
        stream = sng.generate(value, 256)
        assert abs(stream.value - value) <= 1.0 / 256 + 1e-12


class TestRampCompareSNG:
    def test_equivalent_to_ramp_compare_stream(self):
        sng = RampCompareSNG(bits=6)
        stream = sng.generate(0.3, 64)
        assert stream.ones == int(np.ceil(0.3 * 64)) or stream.ones == int(
            np.floor(0.3 * 64)
        )

    def test_autocorrelated_output(self):
        from repro.bitstream import autocorrelation

        stream = RampCompareSNG(bits=8).generate(0.5, 256)
        assert autocorrelation(stream, lag=1) > 0.9


class TestSNGPairFactory:
    @pytest.mark.parametrize("scheme", sorted(TABLE1_SCHEMES))
    def test_all_schemes_constructible(self, scheme):
        sng_x, sng_y = sng_pair(scheme, precision=4)
        x = sng_x.generate(0.5, 16)
        y = sng_y.generate(0.25, 16)
        assert len(x) == len(y) == 16

    def test_random_scheme(self):
        sng_x, sng_y = sng_pair("random", precision=4, seed=3)
        assert len(sng_x.generate(0.5, 16)) == 16

    def test_unknown_scheme(self):
        with pytest.raises(ValueError):
            sng_pair("quantum", precision=4)

    def test_scheme_quality_ordering_on_multiplication(self):
        # A coarse preview of Table 1: over a grid of input pairs, the
        # shared-LFSR scheme must give a worse AND-multiplication MSE than the
        # ramp + low-discrepancy scheme proposed by the paper.
        from repro.sc import and_multiply, stochastic_to_binary

        def scheme_mse(scheme: str) -> float:
            sng_x, sng_y = sng_pair(scheme, precision=6)
            grid = np.linspace(0.0, 1.0, 9)
            errors = []
            for px in grid:
                x_bits = sng_x.generate(px, 64)
                for py in grid:
                    y_bits = sng_y.generate(py, 64)
                    z = stochastic_to_binary(and_multiply(x_bits, y_bits))
                    errors.append((float(z) - px * py) ** 2)
            return float(np.mean(errors))

        assert scheme_mse("shared_lfsr") > scheme_mse("ramp_low_discrepancy")
