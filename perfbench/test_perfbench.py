"""Fast checks of the benchmark's own logic; no workload is run here."""

import json
import shutil
import statistics
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

from perfbench import environment, manifest, metrics, run, runner, stats, tracing, workloads
from perfbench.metrics import Phase, Unit
from perfbench.tracing import SETUP_OP, Span, Tracer
from perfbench.workloads import Call
from repro.bitstream.backend import BACKENDS
from repro.faults import FaultSpec
from repro.nn import build_lenet5_small
from repro.sc import convolution, new_sc_engine, old_sc_engine
from repro.sc.elements.adders import TreePlan
from repro.sc.mode import MODES

ROOT = Path(__file__).resolve().parent.parent


# ---------------------------------------------------------------------- #
# percentiles and sample counts
# ---------------------------------------------------------------------- #
def test_percentile_matches_inclusive_quantiles():
    data = [5.0, 1.0, 9.0, 3.0, 7.0, 2.0, 8.0, 4.0]
    q1, q2, q3 = statistics.quantiles(data, n=4, method="inclusive")
    assert stats.percentile(data, 25) == pytest.approx(q1)
    assert stats.percentile(data, 50) == pytest.approx(q2)
    assert stats.percentile(data, 75) == pytest.approx(q3)
    assert stats.percentile(data, 0) == 1.0
    assert stats.percentile(data, 100) == 9.0
    assert stats.percentile([4.0], 75) == 4.0


def test_percentile_rejects_empty_sample_and_bad_rank():
    with pytest.raises(ValueError):
        stats.percentile([], 50)
    with pytest.raises(ValueError):
        stats.percentile([1.0], 101)


def test_samples_beyond_counts_samples_past_the_interpolation_point():
    for n in range(1, 150):
        for q in (50, 75, 90):
            position = (n - 1) * q / 100
            assert stats.samples_beyond(n, q) == sum(i > position for i in range(n))
    assert stats.samples_beyond(100, 90) == 10
    assert stats.samples_beyond(0, 90) == 0


def test_sample_counts_the_tail_percentiles_need():
    # p90 needs 92 ops for ten samples beyond it; the reported p75 needs 38.
    assert (stats.samples_beyond(91, 90), stats.samples_beyond(92, 90)) == (9, 10)
    assert stats.TAIL_PERCENTILE == 75
    assert (stats.samples_beyond(37, 75), stats.samples_beyond(38, 75)) == (9, stats.MIN_BEYOND)


def test_quartile_spread_is_interquartile_range_over_median():
    values = [10.0, 12.0, 11.0, 15.0, 14.0, 13.0, 19.0, 16.0, 18.0, 17.0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert stats.quartile_spread(values) == pytest.approx((q3 - q1) / 14.5)


# ---------------------------------------------------------------------- #
# spans and self time
# ---------------------------------------------------------------------- #
def test_self_time_subtracts_direct_children_only():
    spans = [
        Span("a", 0, 100, -1, 0),
        Span("b", 10, 40, 0, 0),
        Span("c", 15, 25, 1, 0),
        Span("d", 50, 90, 0, 0),
    ]
    assert tracing.self_times(spans) == [30, 20, 10, 40]


def test_tracer_nests_spans_and_aggregates_by_op():
    ticks = iter(range(0, 10_000, 10))
    tracer = Tracer(clock=lambda: next(ticks))

    class Leaf:
        def work(self):
            return np.zeros(3)

    class Outer:
        def run(self):
            return Leaf().work()

    tracer.wrap_method(Leaf, "work", "leaf", measure=lambda out: out.nbytes)
    tracer.wrap_method(Outer, "run", "outer")
    tracer.op = 3
    Outer().run()
    tracer.op = SETUP_OP
    Outer().run()
    tracer.uninstall()

    outer, leaf = tracer.spans[:2]
    assert (outer.parent, leaf.parent) == (-1, 0)
    assert (outer.op, leaf.op, tracer.spans[2].op) == (3, 3, SETUP_OP)
    timed = tracing.aggregate(tracer.spans, [3])
    assert timed["outer"].calls == 1 and timed["leaf"].calls == 1
    # clock: outer opens at 0, leaf runs 10-20, outer closes at 30
    assert (timed["outer"].self_ns, timed["outer"].total_ns, timed["leaf"].self_ns) == (20, 30, 10)
    assert timed["leaf"].value == 24
    assert tracing.aggregate(tracer.spans)["outer"].calls == 2


def test_chrome_trace_has_complete_events_in_microseconds():
    spans = [Span("sc.counts", 1_000, 5_000, -1, 2)]
    event = tracing.chrome_trace(spans)["traceEvents"][0]
    assert event["ph"] == "X" and event["ts"] == 0.0 and event["dur"] == 4.0
    assert event["args"] == {"op": 2} and event["cat"] == "sc"
    json.dumps(tracing.chrome_trace(spans))


# ---------------------------------------------------------------------- #
# wrappers come off cleanly
# ---------------------------------------------------------------------- #
def test_uninstall_restores_methods_names_and_instances():
    class Base:
        def f(self):
            return "f"

    class Child(Base):
        def g(self):
            return "g"

    module = types.ModuleType("fake")
    module.h = lambda: "h"
    own_g, own_h = Child.__dict__["g"], module.h
    obj = Child()

    tracer = Tracer()
    tracer.wrap_method(Child, "f", "f")  # inherited
    tracer.wrap_method(Child, "g", "g")
    tracer.wrap_name(module, "h", "h")
    tracer.wrap_instance(obj, "g", "obj.g")
    assert (obj.f(), obj.g(), module.h()) == ("f", "g", "h")
    assert [s.name for s in tracer.spans] == ["f", "obj.g", "g", "h"]
    tracer.uninstall()

    assert "f" not in Child.__dict__
    assert Child.__dict__["g"] is own_g
    assert module.h is own_h
    assert "g" not in vars(obj)
    with pytest.raises(TypeError):
        tracer.wrap_method(type("S", (), {"s": staticmethod(lambda: 1)}), "s", "s")


def test_benchmark_wrappers_are_removed_after_a_traced_forward():
    originals = [(cls, attr, cls.__dict__[attr]) for cls, attr, _, _ in metrics._METHODS]
    extract = convolution.extract_patches
    model = workloads.conditioned_model(build_lenet5_small(seed=0), 8)
    assert tuple(type(layer).__name__ for layer in model.layers) == metrics.NN_LAYERS

    tracer = Tracer()
    metrics.instrument(tracer)
    wasted = metrics.instrument_models(tracer, [model])
    model.forward(np.zeros((2, 1, 28, 28)))
    tracer.uninstall()

    assert wasted == ["nn.0.StochasticResolutionConv2D.backward", "nn.1.MaxPool2D.backward"]
    assert [s.name for s in tracer.spans] == [
        f"nn.{i}.{cls}.forward" for i, cls in enumerate(metrics.NN_LAYERS)
    ]
    for cls, attr, fn in originals:
        assert cls.__dict__[attr] is fn
    assert convolution.extract_patches is extract
    for layer in model.layers:
        assert "forward" not in vars(layer) and "backward" not in vars(layer)


@pytest.mark.parametrize(
    "engine, path",
    [
        (new_sc_engine(4), "counts"),
        (old_sc_engine(4), "counts"),
        (new_sc_engine(4, mode="streams"), "streams"),
        (old_sc_engine(4, faults=FaultSpec(flip_rate=0.01)), "streams"),
    ],
)
def test_observed_path_reports_the_tree_evaluation_that_ran(engine, path):
    originals = {a: TreePlan.__dict__[a] for a in ("reduce_counts", "leaf_masks", "reduce_packed")}
    with workloads.observed_path() as seen:
        engine.dot_filters(np.full((3, 9), 0.5), np.linspace(-1.0, 1.0, 18).reshape(2, 9))
    assert seen["path"] == path
    assert all(TreePlan.__dict__[a] is fn for a, fn in originals.items())


# ---------------------------------------------------------------------- #
# phases and metrics
# ---------------------------------------------------------------------- #
def _op(seconds, ok=True, images=4):
    calls = [
        Call(("this_work", "p8"), images, seconds * 0.6, None),
        Call(("old_sc", "p8"), images, seconds * 0.4, None),
    ]
    return Unit("op", seconds, calls, ok, user_s=seconds * 0.9, sys_s=seconds * 0.1, minflt=10)


def test_end_to_end_skips_failed_ops():
    phase = Phase([_op(0.5), _op(0.7), _op(9.0, ok=False)])
    values = metrics.end_to_end(phase, setup_s=1.5, peak_rss_mb=100.0)
    assert list(values) == [m.name for m in metrics.END_TO_END]
    # rates are medians of per-op rates
    assert values["images_per_s"] == pytest.approx((8 / 0.5 + 8 / 0.7) / 2)
    assert values["op_ms_p50"] == pytest.approx(600.0)
    assert values["this_work.images_per_s"] == pytest.approx((4 / 0.3 + 4 / 0.42) / 2)
    assert values["old_sc.images_per_s"] == pytest.approx((4 / 0.2 + 4 / 0.28) / 2)
    assert (values["setup_s"], values["peak_rss_mb"]) == (1.5, 100.0)


def test_per_layer_reports_every_metric_per_op_and_zero_for_unused_layers():
    ms = 1_000_000
    spans = [
        Span("hybrid.emulator.calibrate", 0, 2000 * ms, -1, SETUP_OP),
        Span("op", 0, 100 * ms, -1, 0),
        Span("sc.counts", 10 * ms, 60 * ms, 1, 0),
        Span("rng.prepare_inputs", 60 * ms, 70 * ms, 1, 0, value=1000.0),
        Span("op", 100 * ms, 200 * ms, -1, 1),
        Span("sc.counts", 110 * ms, 140 * ms, 4, 1),
        Span("nn.0.StochasticResolutionConv2D.backward", 150 * ms, 170 * ms, 4, 1),
    ]
    traced = Phase([_op(0.1), _op(0.1)])
    untraced = Phase([_op(0.09), _op(0.09)])
    values = metrics.per_layer(
        traced, spans, untraced, ["nn.0.StochasticResolutionConv2D.backward"],
        load_s=0.1, warmup_s=0.2, counts_peak_alloc_mb=5.0,
    )
    assert list(values) == [m.name for m in metrics.PER_LAYER]
    assert values["sc.counts.ms"] == pytest.approx(40.0)
    assert values["sc.counts.calls"] == 1.0
    assert values["rng.prepare_inputs.bytes"] == 500.0
    assert values["hybrid.emulator.calibrate.s"] == pytest.approx(2.0)
    assert values["nn.frozen_backward.share"] == pytest.approx(0.1)
    assert values["nn.loss.ms"] == 0.0 and values["eval.images_per_s"] == 0.0
    assert values["proc.sys_share"] == pytest.approx(0.1)
    assert values["p8.images_per_s"] == pytest.approx(8 / 0.09)
    assert values["trace.overhead"] == pytest.approx(0.1 / 0.09 - 1)


class _Tiny(workloads.Workload):
    min_ops = 3
    eval_every = 2

    def op(self, state, index):
        if index == 1:
            raise RuntimeError("op failure")
        return [Call(("x",), 1, 0.0, np.array([index]))]

    def evaluate(self, state):
        return [Call(("eval",), 1, 0.0, np.array([12]))]


def test_phase_runs_min_ops_and_evals_and_survives_failures():
    phase = runner.run_phase(_Tiny(), None, seconds=0.0)
    assert [u.kind for u in phase.units] == ["op", "op", "eval", "op"]
    # op 1 raised; the eval returned class 12, outside 0-9
    assert [u.ok for u in phase.units] == [True, False, False, True]
    assert runner.same_outputs(phase, runner.run_phase(_Tiny(), None, seconds=0.0))


def test_same_outputs_detects_a_changed_prediction():
    a = Phase([Unit("op", 0.1, [Call(("x",), 2, 0.1, np.array([1, 2]))], True)])
    b = Phase([Unit("op", 0.1, [Call(("x",), 2, 0.1, np.array([1, 3]))], True)])
    assert not runner.same_outputs(a, b)
    assert not runner.same_outputs(a, Phase([]))


def test_valid_classes():
    assert workloads.valid_classes(np.array([0, 9]), 2)
    assert not workloads.valid_classes(np.array([0, 10]), 2)
    assert not workloads.valid_classes(np.array([0.0, 1.0]), 2)
    assert not workloads.valid_classes(np.array([1]), 2)


# ---------------------------------------------------------------------- #
# run hygiene, manifest, BENCHMARK.json, failure without source
# ---------------------------------------------------------------------- #
def test_prepare_pins_threads_and_clears_repro_variables():
    env = {"REPRO_MODE": "streams", "REPRO_TILE_PATCHES": "64", "OMP_NUM_THREADS": "8", "LANG": "C"}
    environment.prepare(env)
    assert not [k for k in env if k.startswith("REPRO_")]
    assert all(env[var] == environment.THREADS for var in environment.THREAD_VARS)
    assert env["LANG"] == "C"


def test_manifest_fields():
    model = workloads.conditioned_model(build_lenet5_small(seed=0), 8)
    network = workloads.Network(
        "old_sc.p8", "old_sc", 8,
        workloads.build_network(model, "old_sc", 8, seed=0, faults=FaultSpec(flip_rate=1e-3)),
        ("bitexact",),
    )
    record = manifest.collect(ROOT, "faults", 7, [workloads.describe(network, "streams")])
    for key in ("git_sha", "source_sha256", "python", "numpy", "blas", "threads",
                "nproc", "cpu_model", "workload", "seed", "networks"):
        assert key in record
    assert record["seed"] == 7 and record["workload"] == "faults"
    assert set(record["threads"]) == set(environment.THREAD_VARS)
    entry = record["networks"][0]
    assert entry["backend"] in BACKENDS and entry["mode"] in MODES
    assert entry["tile_patches"] is None or entry["tile_patches"] > 0
    assert entry["evaluation_path"] == "streams"
    assert entry["faults"]["flip_rate"] == 1e-3
    json.dumps(record)


def test_git_sha_reads_loose_packed_and_detached_heads(tmp_path):
    assert manifest.git_sha(tmp_path) is None
    git = tmp_path / ".git"
    (git / "refs" / "heads").mkdir(parents=True)
    (git / "HEAD").write_text("ref: refs/heads/main\n")
    (git / "packed-refs").write_text("# pack-refs\nbbb refs/heads/main\n")
    assert manifest.git_sha(tmp_path) == "bbb"
    (git / "refs" / "heads" / "main").write_text("aaa\n")
    assert manifest.git_sha(tmp_path) == "aaa"
    (git / "HEAD").write_text("ccc\n")
    assert manifest.git_sha(tmp_path) == "ccc"


def test_source_digest_tracks_content(tmp_path):
    (tmp_path / "a.py").write_text("x = 1\n")
    first = manifest.source_digest(tmp_path)
    (tmp_path / "a.py").write_text("x = 2\n")
    assert manifest.source_digest(tmp_path) != first


def test_benchmark_json_matches_the_metrics_the_runner_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]] == [
        (m.name, m.unit, m.better, m.bound) for m in metrics.END_TO_END
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (m.name, m.unit, m.better) for m in metrics.PER_LAYER
    ]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert run.WORKLOADS == tuple(workloads.WORKLOADS)


def test_run_fails_without_the_program_source(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "bitexact", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""
