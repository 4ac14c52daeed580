"""Deterministic fault injection and graceful degradation (``repro.faults``).

The paper's headline robustness claim is that stochastic-computing
arithmetic degrades *gracefully* under bit errors: a flipped stream bit
perturbs an encoded value by only ``1/N``, while a flipped high-order bit of
a binary two's-complement word is catastrophic.  This package makes that
claim measurable:

* :mod:`~repro.faults.masks` -- counter-hashed (SplitMix64) packed word
  masks: seed-deterministic randomness that is independent of tile
  boundaries and evaluation order;
* :mod:`~repro.faults.spec` -- :class:`FaultSpec`, the fault model: one
  per-bit soft-error flip rate on the stream wires and a seed.  A faulted
  stream word is ``w ^ flips`` (:meth:`FaultSpec.apply`);
* :mod:`~repro.faults.binary` -- the matched binary baseline:
  :func:`flip_binary_words` upsets two's-complement words at the same
  per-bit rate;
* :mod:`~repro.faults.sweep` -- the accuracy-vs-fault-rate degradation
  experiment behind the ``repro faults`` CLI and ``BENCH_faults.json``.

Engines accept a spec via their ``faults`` field.  Flips are injected into
the input streams, before the AND with the weights, so a faulted leaf is no
comparator output and no leaf table holds its count.
TFF adder trees still count exactly from their leaf counts (a TFF node's
output count depends only on its input counts, whatever their bits): under
sparse faults the table counts plus one correction per faulted input word
(:meth:`FaultSpec.word_fault_share`, :meth:`FaultSpec.nonzero_masks`),
under dense faults the halved popcounts of the faulted leaf products.  MUX
trees reduce the streams (see
:attr:`~repro.sc.dotproduct.StochasticDotProductEngine.evaluation_path`).
"""

from .binary import flip_binary_words
from .masks import RATE_BITS, bernoulli_words, coordinate_words, splitmix64
from .spec import FaultSpec

__all__ = [
    "RATE_BITS",
    "splitmix64",
    "coordinate_words",
    "bernoulli_words",
    "FaultSpec",
    "flip_binary_words",
]
