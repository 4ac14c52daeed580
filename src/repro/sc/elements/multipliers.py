"""The stochastic multiplier.

Multiplication is the celebrated cheap operation of stochastic computing: in
the **unipolar** encoding a single AND gate multiplies two independent
streams, because ``P(x AND y) = P(x) * P(y)`` (Fig. 1a of the paper).  (In
the bipolar encoding an XNOR gate plays that role; the bipolar engine,
:mod:`repro.sc.bipolar`, applies it to packed words.)

The element is exact *in expectation*; the error of a finite-length
multiplication is entirely determined by how the input streams were
generated, which is what Table 1 measures and what
:func:`repro.eval.table1.run_table1` reproduces.
"""

from __future__ import annotations

import numpy as np

from .util import StreamLike, as_bits, check_same_length, wrap_like

__all__ = ["and_multiply"]


def and_multiply(x: StreamLike, y: StreamLike) -> StreamLike:
    """Unipolar stochastic multiplication: bitwise AND of the two streams."""
    xb, _ = as_bits(x)
    yb, _ = as_bits(y)
    check_same_length(xb, yb)
    return wrap_like((xb & yb).astype(np.uint8), x)
