"""Order statistics for op times and for run-to-run spread."""

from __future__ import annotations

import math
import statistics
from typing import Sequence

#: The op-time tail percentile every workload reports.  A percentile is only
#: reported when at least :data:`MIN_BEYOND` samples lie beyond it; the
#: slowest workload (``faults``, 0.6-0.75 s per op) completes 40-50 ops in a
#: 32 s run, which supports the 75th percentile (38 ops) and not the 90th
#: (92 ops).
TAIL_PERCENTILE = 75

#: Samples that must lie beyond a reported percentile.
MIN_BEYOND = 10


def percentile(values: Sequence[float], q: float) -> float:
    """Linearly interpolated ``q``-th percentile (0-100) of a non-empty sample.

    Position ``(n - 1) * q / 100`` between the sorted samples -- numpy's
    default rule and ``statistics.quantiles(method="inclusive")``.
    """
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0 <= q <= 100:
        raise ValueError(f"percentile must lie in [0, 100], got {q}")
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def samples_beyond(n: int, q: float) -> int:
    """How many of ``n`` sorted samples lie strictly beyond the ``q``-th percentile."""
    if n < 1:
        return 0
    return n - 1 - math.floor((n - 1) * q / 100.0)


def quartile_spread(values: Sequence[float]) -> float:
    """Distance between the first and third quartile as a share of the median.

    Quartiles follow ``statistics.quantiles(values, n=4)``, the rule the
    benchmark's acceptance check applies to ten runs of one workload.
    """
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)
