"""Force the filter banks' evaluation tile in-process.

Banks pick their tile themselves, through the tile rule
:func:`repro.sc.dotproduct.tile_patches`; the tiling tests override that rule
for the duration of a block.  :data:`SINGLE_TILE` makes every evaluation one
untiled pass, the reference a forced tile is compared against.
"""

import contextlib

import pytest

from repro.sc import dotproduct

#: A tile larger than any test input: one untiled pass.
SINGLE_TILE = 1 << 62


@contextlib.contextmanager
def forced_tile(tile):
    """Every filter bank evaluates ``tile`` rows at a time inside the block.

    ``None`` keeps the library's own rule.  Uses ``pytest.MonkeyPatch.context``
    rather than the ``monkeypatch`` fixture, so ``@given`` tests can use it.
    """
    with pytest.MonkeyPatch.context() as mp:
        if tile is not None:
            mp.setattr(dotproduct, "tile_patches", lambda engine, filters, taps: tile)
        yield
