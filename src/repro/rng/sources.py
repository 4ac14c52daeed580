"""Number-source abstractions for stochastic number generation.

A comparator-based stochastic number generator (SNG, Fig. 1c of the paper)
pairs a *number source* with a comparator: at every clock cycle the source
emits a value ``r`` in ``[0, 1)`` and the SNG outputs ``1`` when ``r`` is
below the target probability.  The quality of the resulting bit-stream --
and therefore the accuracy of the whole stochastic circuit -- is determined
almost entirely by the number source (Table 1 of the paper).

This module defines the :class:`NumberSource` interface and the idealized
random source of Table 2; the LFSR, low-discrepancy and ramp sources used in
the paper's comparison live in sibling modules.
"""

from __future__ import annotations

import abc
from typing import Optional

import numpy as np

__all__ = ["NumberSource", "PseudoRandomSource"]


class NumberSource(abc.ABC):
    """A sequence of numbers in ``[0, 1)`` driving an SNG comparator.

    Sources are deterministic state machines: :meth:`sequence` must return
    the same values for the same ``length`` every time unless :meth:`reset`
    changes the internal seed/state.  This determinism is what lets the
    library reproduce the paper's exhaustive MSE sweeps exactly.
    """

    #: Number of resolution bits of the source (``None`` for real-valued sources).
    resolution_bits: Optional[int] = None

    @abc.abstractmethod
    def sequence(self, length: int) -> np.ndarray:
        """Return the first ``length`` source values as floats in ``[0, 1)``."""

    def reset(self) -> None:
        """Restore the source to its initial state (default: stateless no-op)."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


class PseudoRandomSource(NumberSource):
    """An idealized random source backed by numpy's PCG64 generator.

    This models the "random bit-stream" rows of Table 2: a source with good
    statistical behaviour but no low-discrepancy structure, so its SNG output
    exhibits the usual ``O(1/sqrt(N))`` stochastic fluctuation.
    """

    def __init__(self, seed: int = 0) -> None:
        self._seed = int(seed)

    def sequence(self, length: int) -> np.ndarray:
        rng = np.random.default_rng(self._seed)
        return rng.random(length)

    def reset(self) -> None:
        # the sequence is regenerated from the stored seed on every call,
        # so there is no mutable state to restore
        return None

    def __repr__(self) -> str:
        return f"PseudoRandomSource(seed={self._seed})"
