"""Integer arguments, checked at the boundary.

Counts, sizes, strides and precisions are accepted only as integers:
NumPy integers count, bools and floats do not, so ``8.5`` or ``True`` fail
where they are passed instead of being rounded or failing later.
"""

from __future__ import annotations

import numbers

__all__ = ["check_count"]


def check_count(name: str, value, minimum: int = 1, optional: bool = False):
    """``value`` if it is an integer of at least ``minimum``, else ``ValueError``.

    With ``optional``, ``None`` is accepted too.
    """
    if optional and value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < minimum:
        kind = {0: "a non-negative integer", 1: "a positive integer"}.get(
            minimum, f"an integer of at least {minimum}"
        )
        alternative = " or None" if optional else ""
        raise ValueError(f"{name} must be {kind}{alternative}, got {value!r}")
    return value
