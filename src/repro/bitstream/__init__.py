"""Bit-stream representations and value encodings for stochastic computing.

The engines and the netlist simulator keep streams as plain ``uint64``
arrays, 64 clock cycles per word, and run the word kernels of
:mod:`repro.bitstream.packed` on them.  :class:`Bitstream` is the
byte-per-bit object form used by the element functions, the Table 1/2
sweeps and the examples; ``pack_bits(stream.bits)`` /
``unpack_bits(words, n)`` convert losslessly.
"""

from .bitstream import Bitstream
from .correlation import autocorrelation, stochastic_cross_correlation
from .packed import (
    WORD_BITS,
    mask_tail,
    pack_bits,
    pack_comparator_output,
    packed_alternating,
    packed_delay,
    packed_not,
    packed_popcount,
    packed_tff_add,
    packed_toggle_states,
    packed_transition_count,
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
    quantize_bipolar,
    quantize_unipolar,
    stream_length,
    to_probability,
    unipolar_to_bipolar,
)

__all__ = [
    "Bitstream",
    "WORD_BITS",
    "words_for",
    "pack_bits",
    "pack_comparator_output",
    "unpack_bits",
    "mask_tail",
    "packed_popcount",
    "packed_not",
    "packed_alternating",
    "packed_delay",
    "packed_transition_count",
    "packed_tff_add",
    "packed_toggle_states",
    "UNIPOLAR",
    "BIPOLAR",
    "stream_length",
    "clip_unipolar",
    "clip_bipolar",
    "unipolar_to_bipolar",
    "bipolar_to_unipolar",
    "quantize_unipolar",
    "quantize_bipolar",
    "to_probability",
    "from_probability",
    "stochastic_cross_correlation",
    "autocorrelation",
]
