"""Engine evaluation-mode selection: count-domain vs. stream-domain reduction.

The dot-product engines can evaluate their adder trees two ways:

* ``"streams"`` -- materialize every tree node's packed bit-stream and
  popcount the root.  This is the reference path: it works for every adder
  type and is what the hardware literally does.
* ``"counts"`` -- never build an adder-tree stream tensor at all.  For
  all-TFF trees each node's output ones-count is exactly
  ``floor/ceil((ones_x + ones_y) / 2)``, so the root count follows from the
  leaf-product counts by integer halving per level.  For all-MUX trees the
  cached per-node select streams determine, for every clock cycle, which
  *leaf* the root forwards; folding those select decisions into per-leaf
  ownership masks makes the root count the sum of the masked leaf-product
  counts.  Both engines read those leaf counts from tables indexed by
  their inputs' comparator levels, so they build no input stream either
  (:mod:`repro.sc.dotproduct`).  Both shortcuts are provably bit-identical
  to the stream path -- the mode changes speed and memory only, never a
  counter value.
* ``"auto"`` (default) -- use ``"counts"`` whenever the configured adder
  tree admits an exact count-domain evaluation (TFF and MUX trees do; OR
  trees are value-approximate in a position-dependent way and always run as
  streams).

The mode is an engine parameter only: ``None`` resolves to ``"auto"``, the
fastest exact path, and no experiment config, CLI flag or environment
variable chooses it, because it never changes a counter.
"""

from __future__ import annotations

from typing import Optional

__all__ = ["MODES", "validate_mode", "resolve_mode"]

#: Supported engine evaluation modes.  ``"counts"`` forbids stream-tensor
#: adder trees (raising if the configuration has no exact count shortcut),
#: ``"streams"`` forces the reference stream reduction, ``"auto"`` picks
#: counts whenever exact.
MODES = ("auto", "counts", "streams")


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
