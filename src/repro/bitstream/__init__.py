"""Bit-stream representations and value encodings for stochastic computing.

Two interchangeable stream representations are provided: the byte-per-bit
:class:`Bitstream` reference and the 64-bits-per-word
:class:`~repro.bitstream.packed.PackedBitstream` fast backend, convertible
losslessly via ``Bitstream.pack()`` / ``PackedBitstream.unpack()``.
"""

from .bitstream import Bitstream
from .correlation import (
    autocorrelation,
    overlap_count,
    pearson_correlation,
    stochastic_cross_correlation,
)
from .packed import (
    WORD_BITS,
    PackedBitstream,
    mask_tail,
    pack_bits,
    pack_comparator_output,
    packed_alternating,
    packed_delay,
    packed_mux,
    packed_mux_add,
    packed_not,
    packed_popcount,
    packed_tff_add,
    packed_toggle_states,
    packed_transition_count,
    packed_xnor,
    unpack_bits,
    words_for,
)
from .encoding import (
    BIPOLAR,
    UNIPOLAR,
    bipolar_to_unipolar,
    clip_bipolar,
    clip_unipolar,
    from_probability,
    precision_bits,
    quantization_grid,
    quantize_bipolar,
    quantize_unipolar,
    stream_length,
    to_probability,
    unipolar_to_bipolar,
)

__all__ = [
    "Bitstream",
    "PackedBitstream",
    "WORD_BITS",
    "words_for",
    "pack_bits",
    "pack_comparator_output",
    "unpack_bits",
    "mask_tail",
    "packed_popcount",
    "packed_not",
    "packed_xnor",
    "packed_mux",
    "packed_alternating",
    "packed_delay",
    "packed_transition_count",
    "packed_tff_add",
    "packed_mux_add",
    "packed_toggle_states",
    "UNIPOLAR",
    "BIPOLAR",
    "stream_length",
    "precision_bits",
    "clip_unipolar",
    "clip_bipolar",
    "unipolar_to_bipolar",
    "bipolar_to_unipolar",
    "quantize_unipolar",
    "quantize_bipolar",
    "quantization_grid",
    "to_probability",
    "from_probability",
    "stochastic_cross_correlation",
    "pearson_correlation",
    "autocorrelation",
    "overlap_count",
]
