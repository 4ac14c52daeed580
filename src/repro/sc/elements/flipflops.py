"""The toggle flip-flop's state sequence.

The toggle flip-flop (TFF) is the key hardware ingredient of the paper's new
adder (Section III).  A TFF flips its stored bit whenever its input is 1;
crucially, the output stream it produces

* always has ones-density (very close to) 1/2, and
* is *uncorrelated with its own input by construction* -- the output at
  cycle ``t`` depends only on the parity of the input ones seen so far, so no
  extra random number source is needed and auto-correlated inputs (such as
  ramp-converted sensor data) are handled exactly.

:func:`toggle_states` is the byte-per-bit TFF the adders build on; its
packed counterpart is :func:`repro.bitstream.packed.packed_toggle_states`.
"""

from __future__ import annotations

import numpy as np

__all__ = ["toggle_states"]


def toggle_states(trigger: np.ndarray, initial_state: int = 0) -> np.ndarray:
    """Return the TFF state *seen at* each cycle for a trigger bit array.

    ``trigger`` has shape ``(..., N)``; the returned array has the same shape
    and contains, for every cycle ``t``, the flip-flop state before any toggle
    caused by ``trigger[t]`` is applied (i.e. the value a downstream gate
    observes during cycle ``t``).
    """
    trigger = np.asarray(trigger, dtype=np.uint8)
    if initial_state not in (0, 1):
        raise ValueError(f"initial_state must be 0 or 1, got {initial_state}")
    # Parity of trigger ones strictly before t, computed as an exclusive scan.
    cumulative = np.cumsum(trigger, axis=-1, dtype=np.int64)
    before = cumulative - trigger
    return ((before & 1) ^ initial_state).astype(np.uint8)
