"""Engine evaluation-mode selection: the fastest exact path, or the reference.

The dot-product engines can evaluate their adder trees two ways:

* ``"auto"`` (default) -- the fastest exact path the configuration has
  (:attr:`~repro.sc.dotproduct.StochasticDotProductEngine.evaluation_path`).
  Without stream faults both engines gather leaf counts from tables indexed
  by their inputs' comparator levels and build no stream at all: all-TFF
  trees halve the leaf counts per level, since each node's output
  ones-count is exactly ``floor/ceil((ones_x + ones_y) / 2)``, and all-MUX
  trees sum leaf counts restricted to per-leaf ownership masks folded from
  the cached select streams.  Under stream faults TFF trees correct the
  gathered counts for each faulted input word (sparse faults) or halve the
  popcounts of the faulted leaf products (dense faults), and MUX trees
  reduce the streams.
* ``"streams"`` -- materialize every tree node's packed bit-stream and
  popcount the root.  This is the reference path, what the hardware
  literally does, and what the differential suites compare ``"auto"``
  against.

Both modes produce bit-identical counter values; the mode changes speed and
memory only.  It is an engine parameter only: ``None`` resolves to
``"auto"``, and no experiment config, CLI flag or environment variable
chooses it, because it never changes a counter.
"""

from __future__ import annotations

from typing import Optional

__all__ = ["MODES", "validate_mode", "resolve_mode"]

#: Supported engine evaluation modes: ``"auto"`` takes the fastest exact
#: path, ``"streams"`` forces the reference stream reduction.
MODES = ("auto", "streams")


def validate_mode(mode: str) -> str:
    """Raise ``ValueError`` unless ``mode`` names a supported evaluation mode."""
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}; expected one of {MODES}")
    return mode


def resolve_mode(mode: Optional[str] = None) -> str:
    """Resolve and validate an evaluation-mode choice: ``None`` means ``"auto"``.

    An explicit empty string is rejected like any other invalid name.
    """
    return validate_mode("auto" if mode is None else mode)
