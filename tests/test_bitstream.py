"""Unit and property tests for the Bitstream container."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.bitstream import BIPOLAR, Bitstream


bit_lists = st.lists(st.integers(min_value=0, max_value=1), min_size=1, max_size=64)


class TestConstruction:
    def test_from_paper_string(self):
        # The example stream from Section II-A: X = 001011... has value 0.5.
        x = Bitstream("001011")
        assert x.value == pytest.approx(0.5)

    def test_string_with_spaces(self):
        x = Bitstream("0110 0011 0101 0111 1000")
        assert len(x) == 20
        assert x.value == pytest.approx(0.5)

    def test_rejects_bad_string(self):
        with pytest.raises(ValueError):
            Bitstream("0102")

    def test_rejects_bad_integers(self):
        with pytest.raises(ValueError):
            Bitstream([0, 1, 2])

    def test_rejects_2d_array(self):
        with pytest.raises(ValueError):
            Bitstream(np.zeros((2, 2), dtype=np.uint8))

    def test_rejects_unknown_encoding(self):
        with pytest.raises(ValueError):
            Bitstream("01", encoding="trinary")

    def test_from_bool_array(self):
        x = Bitstream(np.array([True, False, True]))
        assert x.ones == 2

    def test_from_exact_counts(self):
        x = Bitstream.from_exact(0.375, 16)
        assert x.ones == 6
        assert x.value == pytest.approx(0.375)

    def test_from_random_seeded_reproducible(self):
        a = Bitstream.from_random(0.5, 64, rng=42)
        b = Bitstream.from_random(0.5, 64, rng=42)
        assert a == b

    def test_from_bitstream_copy(self):
        a = Bitstream("0101")
        b = Bitstream(a)
        assert a == b and a is not b


class TestInterpretation:
    def test_bipolar_value(self):
        x = Bitstream("1111", encoding=BIPOLAR)
        assert x.value == pytest.approx(1.0)
        y = Bitstream("1100", encoding=BIPOLAR)
        assert y.value == pytest.approx(0.0)

    def test_empty_probability_raises(self):
        with pytest.raises(ValueError):
            Bitstream(np.zeros(0, dtype=np.uint8)).probability

    @given(bit_lists)
    def test_value_in_unipolar_range(self, bits):
        x = Bitstream(bits)
        assert 0.0 <= x.value <= 1.0

    @given(bit_lists)
    def test_value_in_bipolar_range(self, bits):
        x = Bitstream(bits, encoding=BIPOLAR)
        assert -1.0 <= x.value <= 1.0


class TestManipulation:
    def test_permute_preserves_value(self):
        x = Bitstream("00001111")
        assert x.permute(rng=0).value == pytest.approx(x.value)

    def test_to_string_grouping(self):
        x = Bitstream("01100011")
        assert x.to_string() == "0110 0011"
        assert x.to_string(group=0) == "01100011"

    def test_repr_contains_value(self):
        assert "value=" in repr(Bitstream("0101"))

    def test_equality_and_hash(self):
        a = Bitstream("0101")
        b = Bitstream([0, 1, 0, 1])
        assert a == b
        assert hash(a) == hash(b)
        assert a != Bitstream("0101", encoding=BIPOLAR)
        assert (a == "0101") is False or True  # NotImplemented path exercised
