"""Run hygiene applied before numpy loads (this module imports no numpy)."""

from __future__ import annotations

import os

__all__ = ["THREADS", "THREAD_VARS", "prepare"]

#: BLAS/OpenMP thread count; 1 is at most ``nproc`` on every machine.
THREADS = "1"

#: Thread-count variables of the BLAS / OpenMP runtimes numpy may load.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def prepare(environ=os.environ) -> None:
    """Pin thread counts and clear ``REPRO_*`` so library defaults are measured.

    No allocator variable is set: page-fault time is part of the measured
    cost, and a buffer-reuse change must be able to claim it.
    """
    for key in [k for k in environ if k.startswith("REPRO_")]:
        del environ[key]
    for var in THREAD_VARS:
        environ[var] = THREADS
