"""Experiment E3 -- Table 3 (top): misclassification rate vs. first-layer precision.

For every precision the harness produces three rows, mirroring the paper:

* **Binary**    -- first layer quantized to ``b`` bits with a sign activation,
                   evaluated in the binary domain, remaining layers retrained;
* **Old SC**    -- first layer quantized to ``b`` bits and evaluated with
                   the conventional stochastic design (MUX adders, LFSR
                   SNGs), remaining layers retrained against the stochastic
                   layer's resolution (input quantization, counter LSBs and
                   soft threshold);
* **This Work** -- the same network, its first layer evaluated with the
                   proposed stochastic design (TFF adders, ramp-compare
                   inputs, low-discrepancy weights).

The stochastic rows are scored bit-exactly: every first-layer output comes
from the engine's own counters (:mod:`repro.sc.convolution`), whose filter
bank streams the patches in byte-budgeted tiles, so the rows cover the whole
test set in bounded memory.  The experiment is CPU-budget-aware: dataset
sizes, training epochs and the number of scored test images are
configurable (environment variables ``REPRO_TRAIN_SIZE``,
``REPRO_TEST_SIZE`` and ``REPRO_EVAL_IMAGES``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

import numpy as np

from ..datasets import load_dataset
from ..hybrid import HybridStochasticBinaryNetwork
from ..nn import Adam, Sequential, build_lenet5_small, quantize_and_freeze, retrain
from ..sc import new_sc_engine, old_sc_engine
from ..utils.checks import check_count
from ..utils.env import env_positive_int

__all__ = ["AccuracyConfig", "Table3AccuracyResult", "run_table3_accuracy"]


@dataclass
class AccuracyConfig:
    """Knobs of the Table 3 accuracy experiment."""

    precisions: Sequence[int] = (8, 7, 6, 5, 4, 3, 2)
    train_size: Optional[int] = None
    test_size: Optional[int] = None
    baseline_epochs: int = 4
    retrain_epochs: int = 3
    batch_size: int = 64
    learning_rate: float = 1e-3
    #: Number of test images scored by the stochastic rows: a positive
    #: integer, or None for all of them (``REPRO_EVAL_IMAGES`` when unset).
    sc_eval_images: Optional[int] = None
    #: Soft-threshold level for the stochastic sign activation (fraction of range).
    soft_threshold: float = 0.02
    #: Evaluate a no-retraining ablation row as well.
    include_no_retrain: bool = False
    seed: int = 0

    def __post_init__(self) -> None:
        self.precisions = tuple(self.precisions)
        if not self.precisions:
            raise ValueError("precisions must name at least one precision")
        for precision in self.precisions:
            check_count("precision", precision, 2)
        check_count("train_size", self.train_size, optional=True)
        check_count("test_size", self.test_size, optional=True)
        check_count("baseline_epochs", self.baseline_epochs, 0)
        check_count("retrain_epochs", self.retrain_epochs, 0)
        check_count("batch_size", self.batch_size)
        # load_dataset reads the size variables when a size is unset: check
        # them here, so a bad value fails before any training.
        if self.train_size is None:
            env_positive_int("REPRO_TRAIN_SIZE")
        if self.test_size is None:
            env_positive_int("REPRO_TEST_SIZE")
        if self.sc_eval_images is None:
            self.sc_eval_images = env_positive_int("REPRO_EVAL_IMAGES")
        check_count("sc_eval_images", self.sc_eval_images, optional=True)


@dataclass
class Table3AccuracyResult:
    """Misclassification rates per design and precision, plus metadata."""

    #: ``rates[design][precision]`` with designs "binary", "old_sc", "this_work"
    #: (and optionally "binary_no_retrain").
    rates: Dict[str, Dict[int, float]]
    baseline_misclassification: float
    config: AccuracyConfig
    train_size: int
    test_size: int
    #: Number of test images the stochastic rows scored.
    sc_test_size: int

    def gap_to_binary(self, design: str, precision: int) -> float:
        """Misclassification gap (positive = worse than binary) at a precision."""
        return self.rates[design][precision] - self.rates["binary"][precision]

    def improvement_over_old_sc(self, precision: int) -> float:
        """How much lower (better) the proposed design's error is vs. old SC."""
        return self.rates["old_sc"][precision] - self.rates["this_work"][precision]


def _train_baseline(
    x_train: np.ndarray,
    y_train: np.ndarray,
    config: AccuracyConfig,
) -> Sequential:
    model = build_lenet5_small(seed=config.seed)
    model.fit(
        x_train,
        y_train,
        epochs=config.baseline_epochs,
        batch_size=config.batch_size,
        optimizer=Adam(config.learning_rate),
        rng=np.random.default_rng(config.seed),
    )
    return model


def run_table3_accuracy(config: Optional[AccuracyConfig] = None) -> Table3AccuracyResult:
    """Run the full accuracy experiment and return every table row."""
    config = config if config is not None else AccuracyConfig()
    data = load_dataset(
        train_size=config.train_size, test_size=config.test_size, seed=config.seed
    )
    x_train = data.x_train[:, np.newaxis, :, :]
    x_test = data.x_test[:, np.newaxis, :, :]
    y_train, y_test = data.y_train, data.y_test

    baseline = _train_baseline(x_train, y_train, config)
    baseline_rate = baseline.misclassification_rate(x_test, y_test)

    rates: Dict[str, Dict[int, float]] = {"binary": {}, "old_sc": {}, "this_work": {}}
    if config.include_no_retrain:
        rates["binary_no_retrain"] = {}

    x_sc = data.x_test[: config.sc_eval_images]
    y_sc = y_test[: config.sc_eval_images]
    for precision in config.precisions:
        # --- Binary row: quantized weights + sign activation, retrained. ---
        frozen = quantize_and_freeze(baseline, precision=precision)
        if config.include_no_retrain:
            rates["binary_no_retrain"][precision] = frozen.misclassification_rate(
                x_test, y_test
            )
        retrain(
            frozen,
            x_train,
            y_train,
            epochs=config.retrain_epochs,
            batch_size=config.batch_size,
            optimizer=Adam(config.learning_rate),
            rng=np.random.default_rng(config.seed + precision),
        )
        rates["binary"][precision] = frozen.misclassification_rate(x_test, y_test)

        # --- Stochastic rows: the remainder retrained against the SC
        # resolution (input quantization + counter LSBs), per the paper's
        # "compensate for precision losses introduced by shorter stochastic
        # bit-streams"; the first layer scored from bit-exact counters. ---
        sc_model = quantize_and_freeze(
            baseline,
            precision=precision,
            sc_resolution=True,
            soft_threshold=config.soft_threshold,
        )
        retrain(
            sc_model,
            x_train,
            y_train,
            epochs=config.retrain_epochs,
            batch_size=config.batch_size,
            optimizer=Adam(config.learning_rate),
            rng=np.random.default_rng(config.seed + 100 + precision),
        )
        for design, engine_factory in (
            ("this_work", new_sc_engine),
            ("old_sc", old_sc_engine),
        ):
            hybrid = HybridStochasticBinaryNetwork(
                sc_model,
                engine=engine_factory(precision, seed=config.seed + 1),
                soft_threshold=config.soft_threshold,
                seed=config.seed,
            )
            rates[design][precision] = hybrid.misclassification_rate(
                x_sc, y_sc, mode="bitexact"
            )

    return Table3AccuracyResult(
        rates=rates,
        baseline_misclassification=baseline_rate,
        config=config,
        train_size=x_train.shape[0],
        test_size=x_test.shape[0],
        sc_test_size=y_sc.shape[0],
    )
