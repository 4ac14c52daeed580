"""Benchmark: one Table 3 retraining step against the reference layers.

Times one 64-image ``retrain()`` step on the model the Table 3 harness
retrains -- ``quantize_and_freeze(build_lenet5_small(seed=0), 8,
sc_resolution=True, soft_threshold=0.02)`` -- against the same step on the
reference layers of ``tests/nn_oracle.py`` (patch-row columns, ``einsum``
gradients, float-mask pooling) with full back-propagation through the
frozen first layer.  Both steps must leave the same parameters, within the
float64 tolerance of the convolutions' reordered sums, and the library step
must be at least 2x faster.

Timings use best-of-``REPEATS`` wall-clock, every repeat from the same
starting model, so a single scheduler hiccup cannot fail the assertion.
"""

import copy
import time

import numpy as np

import nn_oracle
from repro.datasets import load_dataset
from repro.nn import Adam, build_lenet5_small, quantize_and_freeze, retrain

REPEATS = 3
BATCH = 64
#: Tolerance of the reordered float64 sums (as in tests/test_nn_differential.py).
RTOL = ATOL = 1e-12


def best_step(model, step):
    """Best wall-clock of ``step`` on fresh copies of ``model``, plus the last copy."""
    best, trained = float("inf"), None
    for _ in range(REPEATS):
        trained = copy.deepcopy(model)
        start = time.perf_counter()
        step(trained)
        best = min(best, time.perf_counter() - start)
    return best, trained


def test_training_step_speedup():
    data = load_dataset(train_size=BATCH, test_size=1, seed=0, prefer_mnist=False)
    x, y = data.x_train[:, np.newaxis], data.y_train
    model = quantize_and_freeze(
        build_lenet5_small(seed=0), 8, sc_resolution=True, soft_threshold=0.02
    )

    fast_s, fast = best_step(
        model, lambda m: retrain(m, x, y, epochs=1, batch_size=BATCH)
    )
    oracle_s, oracle = best_step(
        nn_oracle.as_oracle(model),
        lambda m: nn_oracle.fit(
            m, x, y, epochs=1, batch_size=BATCH, optimizer=Adam(learning_rate=1e-3)
        ),
    )

    for mine, expected in zip(nn_oracle.parameters(fast), nn_oracle.parameters(oracle)):
        np.testing.assert_allclose(mine, expected, rtol=RTOL, atol=ATOL)

    speedup = oracle_s / fast_s
    print(
        f"\nretrain step, {BATCH} images: reference layers with full backward "
        f"{oracle_s * 1e3:.0f} ms, library {fast_s * 1e3:.0f} ms ({speedup:.1f}x)"
    )
    assert speedup >= 2.0, (
        f"training step only {speedup:.1f}x faster than the reference layers "
        f"with full back-propagation (floor is 2x)"
    )
