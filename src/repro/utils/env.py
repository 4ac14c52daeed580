"""Integer environment settings, validated where they are read.

``REPRO_TRAIN_SIZE``, ``REPRO_TEST_SIZE`` and ``REPRO_EVAL_IMAGES`` all go
through :func:`env_positive_int`, so a bad value fails with a ``ValueError``
that names the variable instead of a bare ``int()`` traceback.
"""

from __future__ import annotations

import os
from typing import Optional

__all__ = ["env_positive_int"]


def env_positive_int(name: str, default: Optional[int] = None) -> Optional[int]:
    """The positive integer in variable ``name``; ``default`` when it is unset."""
    text = os.environ.get(name)
    if text is None:
        return default
    if not text.strip().isdecimal() or int(text) < 1:
        raise ValueError(f"{name} must be a positive integer, got {text!r}")
    return int(text)

