"""One benchmark run: set-ups, timed phases, checks, and the result line.

``--trace 0``: five set-ups (the median sets ``setup_s``), one un-traced
timed phase of ``--seconds``, output checks, end-to-end metrics.

``--trace 1``: the same set-ups, then an un-traced phase and a traced phase
of ``--seconds / 2`` each -- both from fresh set-ups, so op ``k`` of one
phase repeats op ``k`` of the other and their outputs must be equal -- then
an allocation pass (``tracemalloc`` distorts span times, so it runs alone),
the output checks, and per-layer metrics.  Spans are written as Chrome
trace-event JSON next to the run record in ``perfbench/out/``.
"""

from __future__ import annotations

import json
import resource
import statistics
import sys
import tracemalloc
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.sc.dotproduct import PreparedWeights

from . import manifest
from .metrics import (
    END_TO_END,
    PER_LAYER,
    Phase,
    Unit,
    end_to_end,
    instrument,
    instrument_models,
    per_layer,
)
from .stats import MIN_BEYOND, TAIL_PERCENTILE, samples_beyond
from .tracing import SETUP_OP, Tracer, chrome_trace
from .workloads import WORKLOADS, State, Workload, describe

#: Full set-ups per run; ``setup_s`` takes their median.
SETUP_REPEATS = 5


@dataclass
class Setup:
    seconds: float
    load_s: float
    warmup_s: float


def set_up(
    workload: Workload, seed: int, tracer: Optional[Tracer] = None
) -> Tuple[State, Setup, List[str]]:
    """Build and warm up one workload state; trace its models if ``tracer``."""
    start = perf_counter()
    state = workload.build(seed)
    wasted = instrument_models(tracer, state.models) if tracer is not None else []
    warm = perf_counter()
    workload.warmup(state)
    end = perf_counter()
    return state, Setup(end - start, state.load_s, end - warm), wasted


def run_unit(
    workload: Workload, kind: str, fn: Callable[[], list], tracer: Optional[Tracer]
) -> Unit:
    """Run one op or eval; an exception or a bad output fails it, not the run."""
    before = resource.getrusage(resource.RUSAGE_SELF)
    start = perf_counter()
    calls: list = []
    ok = False
    try:
        if tracer is None:
            calls = fn()
        else:
            with tracer.span(kind):
                calls = fn()
        bad = [c.tags for c in calls if not workload.call_ok(c)]
        ok = not bad
        if bad:
            print(f"perfbench: {kind} output check failed for {bad}", file=sys.stderr)
    except Exception:
        traceback.print_exc(file=sys.stderr)
    seconds = perf_counter() - start
    after = resource.getrusage(resource.RUSAGE_SELF)
    return Unit(
        kind,
        seconds,
        calls,
        ok,
        user_s=after.ru_utime - before.ru_utime,
        sys_s=after.ru_stime - before.ru_stime,
        minflt=after.ru_minflt - before.ru_minflt,
    )


def run_phase(
    workload: Workload, state: State, seconds: float, tracer: Optional[Tracer] = None
) -> Phase:
    """Closed loop: ops back to back until ``seconds`` pass (and ``min_ops`` ran)."""
    units: List[Unit] = []
    start = perf_counter()
    index = 0
    while index < workload.min_ops or perf_counter() - start < seconds:
        if tracer is not None:
            tracer.op = index
        units.append(run_unit(workload, "op", lambda: workload.op(state, index), tracer))
        if workload.eval_every and (index + 1) % workload.eval_every == 0:
            units.append(run_unit(workload, "eval", lambda: workload.evaluate(state), tracer))
        index += 1
    if tracer is not None:
        tracer.op = SETUP_OP
    return Phase(units)


def same_outputs(a: Phase, b: Phase) -> bool:
    """Whether the units both phases ran produced identical outputs."""
    pairs = list(zip(a.units, b.units))
    return bool(pairs) and all(
        x.kind == y.kind
        and len(x.calls) == len(y.calls)
        and all(np.array_equal(c.output, d.output) for c, d in zip(x.calls, y.calls))
        for x, y in pairs
    )


def counts_peak_alloc_mb(workload: Workload, seed: int) -> float:
    """Largest traced-memory growth inside one ``PreparedWeights.counts`` call
    over a fresh set-up (which includes a warm-up op and any calibration)."""
    original = PreparedWeights.counts
    peaks: List[int] = []

    def counts(self, prepared):
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        try:
            return original(self, prepared)
        finally:
            peaks.append(tracemalloc.get_traced_memory()[1] - base)

    PreparedWeights.counts = counts
    tracemalloc.start()
    try:
        set_up(workload, seed)
    finally:
        tracemalloc.stop()
        PreparedWeights.counts = original
    return max(peaks, default=0) / 2**20


def run_checks(
    workload: Workload, seed: int, state: State, phase: Phase
) -> Tuple[Dict[str, bool], Dict[str, str]]:
    try:
        return workload.checks(seed, state, [u.calls for u in phase.ops if u.ok])
    except Exception:
        traceback.print_exc(file=sys.stderr)
        return {"checks_ran": False}, {}


def result_line(correct: bool, attempted: int, failed: int, values: Dict[str, float], specs) -> str:
    metrics = {m.name: {"value": float(values[m.name]), "unit": m.unit} for m in specs}
    return json.dumps(
        {"correct": bool(correct), "attempted": attempted, "failed": failed, "metrics": metrics}
    )


def run(root: Path, workload_name: str, seed: int, seconds: float, trace: bool, started: float) -> int:
    workload = WORKLOADS[workload_name]()
    imports_s = perf_counter() - started

    setups: List[Setup] = []
    for _ in range(SETUP_REPEATS):
        state = None  # release the previous set-up before building the next
        state, setup, _ = set_up(workload, seed)
        setups.append(setup)
    setup_s = imports_s + statistics.median(s.seconds for s in setups)

    untraced = run_phase(workload, state, seconds / 2 if trace else seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    phases = [untraced]
    record: Dict[str, object] = {}

    if trace:
        tracer = Tracer()
        instrument(tracer)
        try:
            traced_state, _, wasted = set_up(workload, seed, tracer)
            traced = run_phase(workload, traced_state, seconds / 2, tracer)
        finally:
            tracer.uninstall()
        phases.append(traced)
    if not all(p.op_ms() for p in phases):
        print("perfbench: no op succeeded, so there is nothing to report", file=sys.stderr)
        return 1

    if trace:
        values = per_layer(
            traced,
            tracer.spans,
            untraced,
            wasted,
            load_s=statistics.median(s.load_s for s in setups),
            warmup_s=statistics.median(s.warmup_s for s in setups),
            counts_peak_alloc_mb=counts_peak_alloc_mb(workload, seed),
        )
        specs = PER_LAYER
        record["traced_ops"] = len(traced.ops)
    else:
        values = end_to_end(untraced, setup_s, peak_rss_mb)
        specs = END_TO_END

    # Output checks count as attempted units, so a failed check is an error
    # just like a failed op.
    checks, paths = run_checks(workload, seed, state, untraced)
    if trace:
        checks["traced_outputs_equal_untraced"] = same_outputs(untraced, traced)
    units = [u for p in phases for u in p.units]
    attempted = len(units) + len(checks)
    failed = sum(not u.ok for u in units) + sum(not ok for ok in checks.values())

    out = root / "perfbench" / "out"
    out.mkdir(parents=True, exist_ok=True)
    stem = f"{workload_name}-seed{seed}-trace{int(trace)}"
    n_ops = len(untraced.op_ms())
    record.update({
        "manifest": manifest.collect(
            root, workload_name, seed, [describe(n, paths.get(n.label)) for n in state.networks]
        ),
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted,
        "checks": checks,
        "ops": n_ops,
        "tail_percentile": TAIL_PERCENTILE,
        "samples_beyond_tail": samples_beyond(n_ops, TAIL_PERCENTILE),
        "tail_has_min_samples": samples_beyond(n_ops, TAIL_PERCENTILE) >= MIN_BEYOND,
        "units": {
            "columns": ["kind", "wall_s", "user_s", "sys_s", "minflt", "calls"],
            "rows": [
                [u.kind, u.seconds, u.user_s, u.sys_s, u.minflt,
                 [["+".join(c.tags), c.images, c.seconds] for c in u.calls]]
                for u in untraced.units
            ],
        },
        "setups_s": [s.seconds for s in setups],
        "imports_s": imports_s,
        "metrics": values,
    })
    if trace:
        trace_path = out / f"{stem}.chrome.json"
        meta = {"workload": workload_name, "seed": seed}
        trace_path.write_text(json.dumps(chrome_trace(tracer.spans, meta)))
        record["chrome_trace"] = trace_path.name
    (out / f"{stem}.json").write_text(json.dumps(record, indent=2, default=str))

    print(
        f"perfbench {workload_name} seed={seed} trace={int(trace)}: {n_ops} ops, "
        f"{record['samples_beyond_tail']} beyond p{TAIL_PERCENTILE}; "
        f"error_rate {failed}/{attempted}; checks {checks}"
    )
    for m in specs:
        print(f"  {m.name:34s} {values[m.name]:14.6g} {m.unit}")
    print(f"  record: {out.relative_to(root) / (stem + '.json')}")
    print(result_line(failed == 0, attempted, failed, values, specs))
    return 0
