"""Unit and property tests for repro.bitstream.encoding."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.bitstream import encoding as enc


class TestStreamLength:
    def test_matches_paper_rule(self):
        # Paper Section II-A: a length-16 stream has log2(16) = 4 bits of precision.
        assert enc.stream_length(4) == 16

    @pytest.mark.parametrize("bits,length", [(1, 2), (2, 4), (3, 8), (8, 256), (10, 1024)])
    def test_powers_of_two(self, bits, length):
        assert enc.stream_length(bits) == length

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            enc.stream_length(0)

class TestPolarityConversion:
    def test_unipolar_to_bipolar_midpoint(self):
        assert enc.unipolar_to_bipolar(0.5) == pytest.approx(0.0)

    def test_bipolar_to_unipolar_extremes(self):
        assert enc.bipolar_to_unipolar(-1.0) == pytest.approx(0.0)
        assert enc.bipolar_to_unipolar(1.0) == pytest.approx(1.0)

    @given(st.floats(min_value=0.0, max_value=1.0))
    def test_roundtrip_unipolar(self, p):
        assert enc.bipolar_to_unipolar(enc.unipolar_to_bipolar(p)) == pytest.approx(p)

    @given(st.floats(min_value=-1.0, max_value=1.0))
    def test_roundtrip_bipolar(self, x):
        assert enc.unipolar_to_bipolar(enc.bipolar_to_unipolar(x)) == pytest.approx(x)

    def test_to_probability_clips(self):
        assert enc.to_probability(1.7) == pytest.approx(1.0)
        assert enc.to_probability(-0.3) == pytest.approx(0.0)
        assert enc.to_probability(2.0, enc.BIPOLAR) == pytest.approx(1.0)

    def test_unknown_encoding_rejected(self):
        with pytest.raises(ValueError):
            enc.to_probability(0.5, "ternary")
        with pytest.raises(ValueError):
            enc.from_probability(0.5, "ternary")


class TestQuantization:
    def test_quantize_unipolar_snaps_to_grid(self):
        assert enc.quantize_unipolar(0.26, 2) == pytest.approx(0.25)
        assert enc.quantize_unipolar(0.3749, 4) == pytest.approx(6 / 16)

    def test_quantize_bipolar_step(self):
        # 3-bit bipolar grid has step 2/8 = 0.25.
        assert enc.quantize_bipolar(0.3, 3) == pytest.approx(0.25)
        assert enc.quantize_bipolar(-0.3, 3) == pytest.approx(-0.25)

    @given(
        st.floats(min_value=0.0, max_value=1.0),
        st.integers(min_value=1, max_value=10),
    )
    def test_quantization_error_bounded(self, value, precision):
        q = float(enc.quantize_unipolar(value, precision))
        assert abs(q - value) <= 0.5 / enc.stream_length(precision) + 1e-12

    @given(
        st.floats(min_value=-1.0, max_value=1.0),
        st.integers(min_value=1, max_value=10),
    )
    def test_bipolar_quantization_idempotent(self, value, precision):
        q1 = float(enc.quantize_bipolar(value, precision))
        q2 = float(enc.quantize_bipolar(q1, precision))
        assert q1 == pytest.approx(q2)

    @given(
        st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=20),
        st.integers(min_value=1, max_value=8),
    )
    def test_quantize_vectorized_matches_scalar(self, values, precision):
        arr = np.array(values)
        vec = enc.quantize_unipolar(arr, precision)
        scalar = np.array([enc.quantize_unipolar(v, precision) for v in values])
        np.testing.assert_allclose(vec, scalar)
