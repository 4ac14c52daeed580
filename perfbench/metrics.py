"""Every metric the benchmark reports, and how it is computed.

End-to-end metrics come from un-traced runs (``--trace 0``); every workload
reports every one of them, so each is defined on all three workloads and is
never 0.  Per-layer metrics come from the traced run (``--trace 1``); a
layer a workload never calls reads 0.  Each per-layer metric names the
end-to-end metric it should move and the workload it shows on, so a later
change can cite the pair before it is measured.

Three of the planned end-to-end rates exist on one workload only
(``p8``/``p4`` on ``bitexact``, ``eval`` on ``retrain``), and the error rate
is 0 at a healthy commit.  An end-to-end metric is reported on every
workload and must never read 0 (its regression bound is a share of its
median), so those rates are per-layer metrics (measured in the traced run's
un-traced phase) and the error rate is the result line's
``failed / attempted``.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence

from repro.hybrid import CalibratedSCEmulator, HybridStochasticBinaryNetwork, SensorFrontEnd
from repro.nn import Adam, Sequential, SoftmaxCrossEntropy
from repro.sc import convolution
from repro.sc.convolution import StochasticConv2D
from repro.sc.dotproduct import PreparedWeights, StochasticDotProductEngine

from .stats import TAIL_PERCENTILE, percentile
from .tracing import SETUP_OP, Span, Tracer, aggregate

__all__ = [
    "Metric",
    "END_TO_END",
    "PER_LAYER",
    "NN_LAYERS",
    "Unit",
    "Phase",
    "instrument",
    "end_to_end",
    "per_layer",
]

TAIL = f"op_ms_p{TAIL_PERCENTILE}"


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    #: End-to-end only: the share of the parent's median it may worsen by.
    bound: Optional[float] = None
    #: What it measures (end-to-end) or which end-to-end metric it should
    #: move, on which workload (per-layer).
    doc: str = ""


END_TO_END = (
    Metric("images_per_s", "1/s", "higher", 0.25,
           "median over ops of the op's (image, network) pairs per second; on "
           "retrain the trained images (its evals are the design rates)"),
    Metric("op_ms_p50", "ms", "lower", 0.25, "median op wall time"),
    Metric(TAIL, "ms", "lower", 0.25,
           f"{TAIL_PERCENTILE}th-percentile op wall time; the sample count is in "
           "the run record"),
    Metric("setup_s", "s", "lower", 0.25,
           "run.py start to the first timed op: imports once, plus the median of "
           "five full set-ups (data, model, networks, calibration, warm-up op)"),
    Metric("peak_rss_mb", "MB", "lower", 0.10,
           "peak RSS of the workload process up to the end of the timed phase"),
    Metric("this_work.images_per_s", "1/s", "higher", 0.25,
           "rate over the proposed design's calls: bit-exact on bitexact and "
           "faults, emulate evals on retrain"),
    Metric("old_sc.images_per_s", "1/s", "higher", 0.25,
           "rate over the old-SC design's calls, as this_work.images_per_s"),
)

#: Layer classes of ``build_lenet5_small`` after ``quantize_and_freeze``.
NN_LAYERS = (
    "StochasticResolutionConv2D",
    "MaxPool2D",
    "Conv2D",
    "MaxPool2D",
    "Flatten",
    "Dense",
    "Dropout",
    "Dense",
)

_NN_LAYER_METRICS = tuple(
    Metric(f"nn.{i}.{cls}.{direction}.ms", "ms/op", "lower",
           doc="images_per_s on retrain (all of the op); forwards also "
               "eval.images_per_s, and op_ms_p50 on bitexact (3.6%)")
    for i, cls in enumerate(NN_LAYERS)
    for direction in ("forward", "backward")
)

PER_LAYER = (
    Metric("sc.counts.ms", "ms/op", "lower",
           doc="PreparedWeights.counts self time: images_per_s, both design rates and "
               "op_ms_* on bitexact (~80%) and faults (~90%)"),
    Metric("sc.counts.calls", "calls/op", "lower", doc="tile count per op: op_ms_p50 on bitexact"),
    Metric("sc.counts.peak_alloc_mb", "MB", "lower",
           doc="largest traced allocation growth inside one counts call, own pass: "
               "peak_rss_mb on bitexact and faults"),
    Metric("rng.prepare_inputs.ms", "ms/op", "lower",
           doc="StochasticDotProductEngine.prepare_inputs: images_per_s on bitexact "
               "(~11%) and faults (~2%)"),
    Metric("rng.prepare_inputs.calls", "calls/op", "lower",
           doc="0 once the fault-free path stops generating input streams"),
    Metric("rng.prepare_inputs.bytes", "B/op", "lower",
           doc="bytes of returned input streams: peak_rss_mb on bitexact"),
    Metric("sc.prepare_weights.ms", "ms/op", "lower",
           doc="StochasticDotProductEngine.prepare_weights: op_ms_p50 on bitexact "
               "(~2.4%); setup_s if moved to construction"),
    Metric("sc.prepare_weights.calls", "calls/op", "lower",
           doc="one per forward today (4 per bitexact op)"),
    Metric("faults.apply.ms", "ms/op", "lower",
           doc="StochasticDotProductEngine.apply_faults: images_per_s on faults (~6%); "
               "~0 on bitexact"),
    Metric("sc.conv.self_ms", "ms/op", "lower",
           doc="StochasticConv2D.forward self time: op_ms_p50 on bitexact, faults"),
    Metric("utils.extract_patches.ms", "ms/op", "lower",
           doc="extract_patches as bound in repro.sc.convolution: op_ms_p50 on bitexact, faults"),
    Metric("hybrid.acquire.ms", "ms/op", "lower",
           doc="SensorFrontEnd.acquire: op_ms_p50 on bitexact, faults"),
    Metric("hybrid.forward.self_ms", "ms/op", "lower",
           doc="HybridStochasticBinaryNetwork.forward self time: op_ms_p50 on bitexact, faults"),
    Metric("hybrid.emulator.forward.ms", "ms/op", "lower",
           doc="CalibratedSCEmulator.forward: eval.images_per_s on retrain"),
    Metric("hybrid.emulator.calibrate.s", "s", "lower",
           doc="CalibratedSCEmulator.calibrate during set-up: setup_s on retrain"),
    *_NN_LAYER_METRICS,
    Metric("nn.loss.ms", "ms/op", "lower", doc="SoftmaxCrossEntropy.forward: images_per_s on retrain"),
    Metric("nn.adam.ms", "ms/op", "lower", doc="Adam.step: images_per_s on retrain"),
    Metric("nn.frozen_backward.share", "fraction", "lower",
           doc="backward time of the layers below the first trainable one (their "
               "gradients are discarded) / op time: images_per_s on retrain (~19%)"),
    Metric("datasets.load.s", "s", "lower", doc="load_dataset, median of the set-ups: setup_s"),
    Metric("setup.warmup.s", "s", "lower", doc="warm-up op(s), median of the set-ups: setup_s"),
    Metric("proc.sys_share", "fraction", "lower",
           doc="kernel share of op CPU time (getrusage, un-traced): images_per_s, "
               "peak_rss_mb on bitexact (~16%) and faults (~18%)"),
    Metric("proc.minflt_per_op", "faults/op", "lower",
           doc="minor page faults per op (getrusage, un-traced): images_per_s, peak_rss_mb"),
    Metric("p8.images_per_s", "1/s", "higher", doc="rate over precision-8 bit-exact calls (bitexact, faults)"),
    Metric("p4.images_per_s", "1/s", "higher", doc="rate over precision-4 bit-exact calls (bitexact)"),
    Metric("eval.images_per_s", "1/s", "higher",
           doc="rate over the binary and emulate eval passes (retrain)"),
    Metric("trace.overhead", "fraction", "lower",
           doc="un-traced / traced images_per_s - 1 within the traced run"),
)


# ---------------------------------------------------------------------- #
# measured units
# ---------------------------------------------------------------------- #
@dataclass
class Unit:
    """One op or eval as run: wall time, its calls and process counters."""

    kind: str
    seconds: float
    calls: list
    ok: bool
    user_s: float = 0.0
    sys_s: float = 0.0
    minflt: int = 0


@dataclass
class Phase:
    """The units of one timed phase, in the order they ran."""

    units: List[Unit]

    @property
    def ops(self) -> List[Unit]:
        return [u for u in self.units if u.kind == "op"]

    def images_per_s(self) -> float:
        """Median over successful ops of the op's (image, network) pairs per second.

        A median, not total pairs over phase time: a stall of a few ops
        (hypervisor steal, a neighbour's burst) must not move the rate.
        """
        return statistics.median(
            sum(c.images for c in u.calls) / u.seconds for u in self.ops if u.ok
        )

    def tag_rate(self, tag: str) -> float:
        """Median over successful units of the images per second of their
        calls tagged ``tag``; 0 if no unit calls ``tag``.

        Rates are formed per unit, so a tag covering calls of different cost
        (precision 8 and 4 on one design) still gives a one-peaked sample.
        """
        rates = []
        for u in self.units:
            calls = [c for c in u.calls if tag in c.tags] if u.ok else []
            seconds = sum(c.seconds for c in calls)
            if seconds > 0:
                rates.append(sum(c.images for c in calls) / seconds)
        return statistics.median(rates) if rates else 0.0

    def op_ms(self) -> List[float]:
        return [u.seconds * 1e3 for u in self.ops if u.ok]


def end_to_end(phase: Phase, setup_s: float, peak_rss_mb: float) -> Dict[str, float]:
    times = phase.op_ms()
    return {
        "images_per_s": phase.images_per_s(),
        "op_ms_p50": percentile(times, 50),
        TAIL: percentile(times, TAIL_PERCENTILE),
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
        "this_work.images_per_s": phase.tag_rate("this_work"),
        "old_sc.images_per_s": phase.tag_rate("old_sc"),
    }


# ---------------------------------------------------------------------- #
# tracing
# ---------------------------------------------------------------------- #
def _nbytes(array) -> int:
    return array.nbytes


#: Class methods wrapped in the traced phase: span name and what to measure
#: from the result.
_METHODS = (
    (PreparedWeights, "counts", "sc.counts", None),
    (StochasticDotProductEngine, "prepare_inputs", "rng.prepare_inputs", _nbytes),
    (StochasticDotProductEngine, "prepare_weights", "sc.prepare_weights", None),
    (StochasticDotProductEngine, "apply_faults", "faults.apply", None),
    (StochasticConv2D, "forward", "sc.conv", None),
    (SensorFrontEnd, "acquire", "hybrid.acquire", None),
    (HybridStochasticBinaryNetwork, "forward", "hybrid.forward", None),
    (CalibratedSCEmulator, "forward", "hybrid.emulator.forward", None),
    (CalibratedSCEmulator, "calibrate", "hybrid.emulator.calibrate", None),
    (SoftmaxCrossEntropy, "forward", "nn.loss", None),
    (Adam, "step", "nn.adam", None),
)


def instrument(tracer: Tracer) -> None:
    """Wrap the class methods and the module-bound name the benchmark traces."""
    for cls, attr, name, measure in _METHODS:
        tracer.wrap_method(cls, attr, name, measure)
    tracer.wrap_name(convolution, "extract_patches", "utils.extract_patches")


def instrument_models(tracer: Tracer, models: Iterable[Sequential]) -> List[str]:
    """Wrap each layer's own ``forward``/``backward``; return the names of
    backward spans whose result is discarded (layers below the first
    trainable layer with parameters)."""
    wasted: List[str] = []
    for model in models:
        first_trainable = next(
            (i for i, layer in enumerate(model.layers) if layer.trainable and layer.params),
            len(model.layers),
        )
        for i, layer in enumerate(model.layers):
            prefix = f"nn.{i}.{type(layer).__name__}"
            tracer.wrap_instance(layer, "forward", f"{prefix}.forward")
            tracer.wrap_instance(layer, "backward", f"{prefix}.backward")
            if i < first_trainable:
                wasted.append(f"{prefix}.backward")
    return sorted(set(wasted))


def per_layer(
    traced: Phase,
    spans: List[Span],
    untraced: Phase,
    wasted_backward: Sequence[str],
    load_s: float,
    warmup_s: float,
    counts_peak_alloc_mb: float,
) -> Dict[str, float]:
    """Every per-layer metric; ``spans`` were recorded during ``traced``."""
    n_ops = len(traced.ops)
    timed = aggregate(spans, range(n_ops))
    setup = aggregate(spans, [SETUP_OP])

    def per_op(name: str, field: str) -> float:
        t = timed.get(name)
        return getattr(t, field) / n_ops if t is not None else 0.0

    def ms(name: str) -> float:
        return per_op(name, "self_ns") / 1e6

    values = {
        "sc.counts.ms": ms("sc.counts"),
        "sc.counts.calls": per_op("sc.counts", "calls"),
        "sc.counts.peak_alloc_mb": counts_peak_alloc_mb,
        "rng.prepare_inputs.ms": ms("rng.prepare_inputs"),
        "rng.prepare_inputs.calls": per_op("rng.prepare_inputs", "calls"),
        "rng.prepare_inputs.bytes": per_op("rng.prepare_inputs", "value"),
        "sc.prepare_weights.ms": ms("sc.prepare_weights"),
        "sc.prepare_weights.calls": per_op("sc.prepare_weights", "calls"),
        "faults.apply.ms": ms("faults.apply"),
        "sc.conv.self_ms": ms("sc.conv"),
        "utils.extract_patches.ms": ms("utils.extract_patches"),
        "hybrid.acquire.ms": ms("hybrid.acquire"),
        "hybrid.forward.self_ms": ms("hybrid.forward"),
        "hybrid.emulator.forward.ms": ms("hybrid.emulator.forward"),
        "hybrid.emulator.calibrate.s": (
            setup["hybrid.emulator.calibrate"].total_ns / 1e9
            if "hybrid.emulator.calibrate" in setup else 0.0
        ),
    }
    for metric in _NN_LAYER_METRICS:
        values[metric.name] = ms(metric.name[: -len(".ms")])
    op_seconds = sum(u.seconds for u in traced.ops)
    wasted_ns = sum(timed[name].self_ns for name in wasted_backward if name in timed)
    cpu = sum(u.user_s + u.sys_s for u in untraced.ops)
    values.update({
        "nn.loss.ms": ms("nn.loss"),
        "nn.adam.ms": ms("nn.adam"),
        "nn.frozen_backward.share": wasted_ns / 1e9 / op_seconds,
        "datasets.load.s": load_s,
        "setup.warmup.s": warmup_s,
        "proc.sys_share": sum(u.sys_s for u in untraced.ops) / cpu if cpu > 0 else 0.0,
        "proc.minflt_per_op": sum(u.minflt for u in untraced.ops) / len(untraced.ops),
        "p8.images_per_s": untraced.tag_rate("p8"),
        "p4.images_per_s": untraced.tag_rate("p4"),
        "eval.images_per_s": untraced.tag_rate("eval"),
        "trace.overhead": untraced.images_per_s() / traced.images_per_s() - 1.0,
    })
    return {m.name: values[m.name] for m in PER_LAYER}
