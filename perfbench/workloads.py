"""The benchmark's workloads: what one op is, and how outputs are checked.

Every workload is a closed loop with one client: timed ops run back to back
in one process, each starting when the previous one has returned.  All
inputs derive from the workload seed -- synthetic digits from
``load_dataset``, a seeded ``build_lenet5_small`` conditioned by
``quantize_and_freeze(..., sc_resolution=True, soft_threshold=0.02)``, and
engine / fault seeds -- and the program is driven through its public API
with library defaults.  Bit-exact and fault-path cost does not depend on
weight values, so the inference workloads train nothing.

* ``bitexact`` -- the ``REPRO_BITEXACT`` Table 3 path: one op classifies a
  batch of test images bit-exactly on four networks (both designs at
  precision 8 and 4).  Leaf counts and input-stream generation dominate.
* ``faults`` -- the same engine under stream faults (the ``repro faults``
  operating point), which forces stream-domain adder trees: one op
  classifies one image on both designs at precision 8.  A count-path change
  should leave it unchanged.
* ``retrain`` -- the default Table 3 row: one op is one ``retrain()`` step on
  a 64-image batch with a persistent ``Adam``; every tenth op is followed by
  an eval (``binary`` and both designs' ``emulate``).  ``repro.nn`` forward
  and backward are the whole op; SC code runs only in emulator calibration.
"""

from __future__ import annotations

import contextlib
import dataclasses
import math
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.datasets import load_dataset
from repro.faults import FaultSpec
from repro.hybrid import HybridStochasticBinaryNetwork
from repro.nn import Adam, Sequential, build_lenet5_small, quantize_and_freeze, retrain
from repro.sc import new_sc_engine, old_sc_engine
from repro.sc.elements.adders import TreePlan

from .tracing import Tracer

__all__ = ["Call", "Network", "State", "Workload", "WORKLOADS", "describe", "observed_path"]

#: Soft threshold of the Table 3 harness: conditions the frozen layer and
#: zeroes near-zero SC dot products.
SOFT_THRESHOLD = 0.02

#: Per-bit flip rate of the ``repro faults`` operating point.
FLIP_RATE = 1e-3

DESIGNS = {"this_work": new_sc_engine, "old_sc": old_sc_engine}


@dataclass
class Call:
    """One timed call into the program inside an op or eval."""

    #: Parts of the workload the call exercises (design, precision, eval).
    tags: Tuple[str, ...]
    #: Images processed by the call; each (image, network) pair counts once.
    images: int
    seconds: float
    output: Any


def timed(tags: Tuple[str, ...], images: int, fn, *args, **kwargs) -> Call:
    start = perf_counter()
    output = fn(*args, **kwargs)
    return Call(tags, images, perf_counter() - start, output)


@dataclass
class Network:
    """A hybrid network of a workload and how the workload evaluates it."""

    label: str
    design: str
    precision: int
    net: HybridStochasticBinaryNetwork
    first_layer_modes: Tuple[str, ...]


@dataclass
class State:
    """Everything one set-up builds: data, models, networks, optimizer."""

    images: np.ndarray
    models: List[Sequential]
    networks: List[Network]
    #: Seconds spent in ``load_dataset``.
    load_s: float
    train_images: Optional[np.ndarray] = None
    train_labels: Optional[np.ndarray] = None
    optimizer: Optional[Adam] = None


def conditioned_model(base: Sequential, precision: int) -> Sequential:
    return quantize_and_freeze(
        base, precision=precision, sc_resolution=True, soft_threshold=SOFT_THRESHOLD
    )


def build_network(
    model: Sequential,
    design: str,
    precision: int,
    seed: int,
    mode: Optional[str] = None,
    faults: Optional[FaultSpec] = None,
) -> HybridStochasticBinaryNetwork:
    engine = DESIGNS[design](precision, seed=seed + 1, mode=mode)
    return HybridStochasticBinaryNetwork(
        model, engine=engine, soft_threshold=SOFT_THRESHOLD, seed=seed, faults=faults
    )


def load(seed: int, train_size: int, test_size: int):
    start = perf_counter()
    data = load_dataset(
        train_size=train_size, test_size=test_size, seed=seed, prefer_mnist=False
    )
    return data, perf_counter() - start


def batch(images: np.ndarray, index: int, size: int) -> np.ndarray:
    """The ``index``-th batch of ``size`` images, cycling through the pool."""
    start = (index * size) % images.shape[0]
    return images[start : start + size]


def valid_classes(predictions: Any, images: int) -> bool:
    """One integer class in 0-9 per image."""
    p = np.asarray(predictions)
    return (
        p.shape == (images,)
        and np.issubdtype(p.dtype, np.integer)
        and bool(np.all((p >= 0) & (p <= 9)))
    )


@contextlib.contextmanager
def observed_path():
    """Record which adder-tree evaluation ran inside the block.

    Yields a dict whose ``"path"`` entry is set on exit: ``"streams"`` if a
    stream-domain tree reduction ran, ``"counts"`` if only count-domain
    reductions (TFF halving or MUX leaf masks) ran, ``"none"`` otherwise.
    """
    tracer = Tracer()
    for attr, name in (
        ("reduce_counts", "counts"),
        ("leaf_masks", "counts"),
        ("reduce_packed", "streams"),
        ("reduce_bits", "streams"),
    ):
        tracer.wrap_method(TreePlan, attr, name)
    seen: Dict[str, str] = {}
    try:
        yield seen
    finally:
        tracer.uninstall()
        names = {s.name for s in tracer.spans}
        seen["path"] = "streams" if "streams" in names else ("counts" if names else "none")


class Workload:
    """One workload: set-up, warm-up, the op, an optional eval and checks."""

    name = ""
    #: Run an eval after every this many ops (0: never).
    eval_every = 0
    #: Ops a phase runs even if its time is up (checks need them).
    min_ops = 1

    def build(self, seed: int) -> State:
        raise NotImplementedError

    def op(self, state: State, index: int) -> List[Call]:
        raise NotImplementedError

    def evaluate(self, state: State) -> List[Call]:
        return []

    def warmup(self, state: State) -> None:
        """Fixed warm-up: one op (and one eval where the workload has one)."""
        self.op(state, 0)
        if self.eval_every:
            self.evaluate(state)

    def call_ok(self, call: Call) -> bool:
        return valid_classes(call.output, call.images)

    def checks(
        self, seed: int, state: State, ops: List[List[Call]]
    ) -> Tuple[Dict[str, bool], Dict[str, str]]:
        """Output checks run after timing: ``(check -> passed, network -> path)``."""
        raise NotImplementedError


class Bitexact(Workload):
    name = "bitexact"
    images_per_op = 4
    precisions = (8, 4)
    #: Images in the counts-vs-streams check batch (streams mode is ~8x slower).
    check_images = 2

    def build(self, seed: int) -> State:
        data, load_s = load(seed, train_size=1, test_size=64)
        base = build_lenet5_small(seed=seed)
        models = {p: conditioned_model(base, p) for p in self.precisions}
        networks = [
            Network(f"{design}.p{p}", design, p,
                    build_network(models[p], design, p, seed), ("bitexact",))
            for p in self.precisions
            for design in DESIGNS
        ]
        return State(data.x_test, list(models.values()), networks, load_s)

    def op(self, state: State, index: int) -> List[Call]:
        x = batch(state.images, index, self.images_per_op)
        return [
            timed((n.design, f"p{n.precision}"), len(x), n.net.predict_classes, x, mode="bitexact")
            for n in state.networks
        ]

    def checks(self, seed, state, ops):
        # Fresh networks on both sides: old-SC MUX select seeds advance with
        # every call on one engine, so only equal call histories compare.
        x = batch(state.images, 0, self.check_images)
        passed, paths = {}, {}
        for n in state.networks:
            model = n.net.model
            default = build_network(model, n.design, n.precision, seed)
            streams = build_network(model, n.design, n.precision, seed, mode="streams")
            with observed_path() as seen:
                counts_signs = default.first_layer_bitexact(x)
            passed[f"{n.label}.default_equals_streams"] = np.array_equal(
                counts_signs, streams.first_layer_bitexact(x)
            )
            paths[n.label] = seen["path"]
        return passed, paths


class Faults(Bitexact):
    """The bit-exact op under stream faults, on one image and precision 8."""

    name = "faults"
    images_per_op = 1

    def build(self, seed: int) -> State:
        data, load_s = load(seed, train_size=1, test_size=64)
        model = conditioned_model(build_lenet5_small(seed=seed), 8)
        networks = [
            Network(f"{design}.p8", design, 8,
                    build_network(model, design, 8, seed, faults=self.spec(seed)), ("bitexact",))
            for design in DESIGNS
        ]
        return State(data.x_test, [model], networks, load_s)

    @staticmethod
    def spec(seed: int) -> FaultSpec:
        return FaultSpec(flip_rate=FLIP_RATE, seed=seed)

    def checks(self, seed, state, ops):
        x = batch(state.images, 0, self.images_per_op)
        model = state.models[0]

        def fresh(design):
            return build_network(model, design, 8, seed, faults=self.spec(seed))

        paths = {}
        with observed_path() as seen:
            first = fresh("this_work").forward(x, mode="bitexact")
        paths["this_work.p8"] = seen["path"]
        second = fresh("this_work").forward(x, mode="bitexact")
        with observed_path() as seen:
            fresh("old_sc").first_layer_bitexact(x)
        paths["old_sc.p8"] = seen["path"]
        return {"this_work.p8.fault_masks_deterministic": np.array_equal(first, second)}, paths


class Retrain(Workload):
    name = "retrain"
    batch_size = 64
    eval_every = 10
    #: The loss check compares the first and last ten ops.
    min_ops = 20

    def build(self, seed: int) -> State:
        data, load_s = load(seed, train_size=10 * self.batch_size, test_size=self.batch_size)
        model = conditioned_model(build_lenet5_small(seed=seed), 8)
        modes = {"this_work": ("binary", "emulate"), "old_sc": ("emulate",)}
        networks = [
            Network(f"{design}.p8", design, 8, build_network(model, design, 8, seed), modes[design])
            for design in DESIGNS
        ]
        return State(
            data.x_test,
            [model],
            networks,
            load_s,
            train_images=data.x_train[:, np.newaxis],
            train_labels=data.y_train,
            optimizer=Adam(),
        )

    def op(self, state: State, index: int) -> List[Call]:
        xb = batch(state.train_images, index, self.batch_size)
        yb = batch(state.train_labels, index, self.batch_size)
        # One optimizer step per op: epochs=1 on one batch (the library
        # default of two epochs would repeat the batch).
        step = lambda: retrain(  # noqa: E731
            state.models[0], xb, yb, epochs=1, batch_size=self.batch_size,
            optimizer=state.optimizer,
        ).loss[0]
        return [timed(("train",), len(xb), step)]

    def evaluate(self, state: State) -> List[Call]:
        this_work, old_sc = (n.net for n in state.networks)
        x = state.images
        return [
            timed(("eval", "binary"), len(x), this_work.predict_classes, x, mode="binary"),
            timed(("eval", "this_work"), len(x), this_work.predict_classes, x, mode="emulate"),
            timed(("eval", "old_sc"), len(x), old_sc.predict_classes, x, mode="emulate"),
        ]

    def call_ok(self, call: Call) -> bool:
        if "train" in call.tags:
            return math.isfinite(call.output)
        return super().call_ok(call)

    def checks(self, seed, state, ops):
        losses = [calls[0].output for calls in ops]
        passed = {
            "loss_decreases": len(losses) >= 20
            and float(np.mean(losses[-10:])) < float(np.mean(losses[:10]))
        }
        # Emulator calibration is the only SC work here; observe its path on
        # fresh networks so the probe does not disturb the measured ones.
        paths = {}
        for n in state.networks:
            fresh = build_network(n.net.model, n.design, 8, seed)
            with observed_path() as seen:
                fresh.predict_classes(state.images[:8], mode="emulate")
            paths[n.label] = seen["path"]
        return passed, paths


WORKLOADS = {w.name: w for w in (Bitexact, Faults, Retrain)}


def describe(network: Network, path: Optional[str]) -> Dict[str, Any]:
    """Manifest entry of one network: resolved knobs and evaluation path."""
    engine = network.net.engine
    faults = network.net.faults
    return {
        "network": network.label,
        "design": network.design,
        "precision": network.precision,
        "first_layer_modes": list(network.first_layer_modes),
        "adder": engine.adder,
        "backend": engine.backend,
        "mode": engine.mode,
        "tile_patches": network.net.tile_patches,
        "faults": dataclasses.asdict(faults) if faults is not None else None,
        "evaluation_path": path,
    }

