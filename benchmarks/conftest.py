"""Shared fixtures for the benchmark suite.

The expensive Table 3 accuracy experiment is executed once per benchmark
session (lazily, on first use) and shared between the accuracy benchmark,
the headline-claims benchmark and the retraining ablation.  Its size is
deliberately scaled down from the paper's full MNIST run so the whole
benchmark suite completes on a laptop-class CPU: the configuration is
:func:`_benchmark_accuracy_config` below, and the environment variables
REPRO_TRAIN_SIZE and REPRO_TEST_SIZE scale it back up (see
:mod:`repro.eval.table3_accuracy`).  Its stochastic rows are scored
bit-exactly on every test image unless REPRO_EVAL_IMAGES caps them.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

from repro.eval import AccuracyConfig, run_table3_accuracy
from repro.utils import env_positive_int

# The speed rows time the library against the test suite's reference oracles.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))


def _benchmark_accuracy_config() -> AccuracyConfig:
    """The scaled-down configuration used by the benchmark suite."""
    return AccuracyConfig(
        precisions=(8, 6, 4, 3, 2),
        train_size=env_positive_int("REPRO_TRAIN_SIZE", 1500),
        test_size=env_positive_int("REPRO_TEST_SIZE", 400),
        baseline_epochs=4,
        retrain_epochs=3,
        include_no_retrain=True,
        soft_threshold=0.02,
        seed=0,
    )


@pytest.fixture(scope="session")
def accuracy_result():
    """The shared Table 3 accuracy run (computed once per benchmark session)."""
    return run_table3_accuracy(_benchmark_accuracy_config())


@pytest.fixture(scope="session")
def accuracy_config():
    """The configuration behind :func:`accuracy_result` (for reporting)."""
    return _benchmark_accuracy_config()
