"""Netlist-simulator backend names.

Two interchangeable stream representations exist (see this package's
docstring): the byte-per-bit reference arrays and the 64-bits-per-word packed
arrays.  The stochastic engines and the Table 1/2 sweeps always run packed;
the gate-level netlist simulator (:mod:`repro.netlist.simulator`) keeps both
as execution backends, because its per-cycle loop is the reference and the
fallback for cells that have no word kernel.
"""

from __future__ import annotations

__all__ = ["BACKENDS", "validate_backend"]

#: Supported simulation backends: ``"packed"`` stores 64 stream bits per
#: uint64 word and runs word-level kernels (bit-identical results, roughly an
#: order of magnitude faster); ``"unpacked"`` keeps one uint8 byte per bit.
BACKENDS = ("packed", "unpacked")


def validate_backend(backend: str) -> str:
    """Raise ``ValueError`` unless ``backend`` names a supported backend."""
    if backend not in BACKENDS:
        raise ValueError(
            f"unknown backend {backend!r}; expected one of {BACKENDS}"
        )
    return backend
