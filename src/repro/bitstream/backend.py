"""The stream representation the stochastic engines report.

Engines and the gate-level netlist simulator run on packed 64-bit words
only; an engine states that as its ``backend`` attribute
(:attr:`repro.sc.dotproduct.StochasticDotProductEngine.backend`), which run
manifests record.
"""

from __future__ import annotations

__all__ = ["BACKENDS"]

#: Every value an engine's ``backend`` attribute can take.
BACKENDS = ("packed",)
