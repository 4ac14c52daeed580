#!/usr/bin/env python3
"""End-to-end hybrid stochastic-binary digit classification (paper Fig. 3).

This example walks through the paper's full workflow on the MNIST-like
dataset:

1. train the baseline LeNet-5 variant in floating point;
2. condition the first layer (per-kernel weight scaling, b-bit quantization,
   sign activation), freeze it, and retrain the binary remainder
   (Section V-B);
3. evaluate three first-layer implementations over the whole test set:
   binary (quantized), the proposed stochastic design (TFF adders,
   ramp-compare inputs), and the conventional "old SC" design, the two
   stochastic ones from bit-exact counters.

Runtime is a few minutes on a laptop CPU with the default (scaled-down)
sizes; set REPRO_TRAIN_SIZE / REPRO_TEST_SIZE for larger runs.

Run with:  python examples/hybrid_digit_classification.py [precision]
"""

import sys
import time

import numpy as np

from repro.datasets import load_dataset
from repro.hybrid import HybridStochasticBinaryNetwork
from repro.nn import Adam, build_lenet5_small, quantize_and_freeze, retrain
from repro.sc import new_sc_engine, old_sc_engine
from repro.utils import env_positive_int


def main() -> None:
    precision = int(sys.argv[1]) if len(sys.argv) > 1 else 6
    train_size = env_positive_int("REPRO_TRAIN_SIZE", 2000)
    test_size = env_positive_int("REPRO_TEST_SIZE", 500)

    print(f"Loading dataset ({train_size} train / {test_size} test images) ...")
    data = load_dataset(train_size=train_size, test_size=test_size, seed=0)
    x_train = data.x_train[:, np.newaxis, :, :]
    x_test = data.x_test[:, np.newaxis, :, :]

    print("Training the baseline LeNet-5 variant (floating point, ReLU) ...")
    start = time.time()
    model = build_lenet5_small(seed=0)
    model.fit(x_train, data.y_train, epochs=4, batch_size=64, optimizer=Adam(1e-3))
    baseline_error = model.misclassification_rate(x_test, data.y_test)
    print(f"  baseline misclassification: {100 * baseline_error:.2f}%  "
          f"({time.time() - start:.0f}s)")

    print(f"Conditioning + freezing the first layer at {precision}-bit precision, "
          "then retraining the binary remainder ...")
    start = time.time()
    # Binary row: quantized weights + sign activation, full-resolution accumulation.
    frozen = quantize_and_freeze(model, precision=precision)
    no_retrain_error = frozen.misclassification_rate(x_test, data.y_test)
    retrain(frozen, x_train, data.y_train, epochs=3, optimizer=Adam(2e-3))
    binary_error = frozen.misclassification_rate(x_test, data.y_test)
    print(f"  without retraining: {100 * no_retrain_error:.2f}%")
    print(f"  after retraining  : {100 * binary_error:.2f}%  ({time.time() - start:.0f}s)")

    # Hybrid rows: retrain against the stochastic engine's resolution so the
    # binary remainder compensates for the bit-stream precision loss (V-B).
    print("Retraining against the stochastic first-layer resolution ...")
    start = time.time()
    sc_model = quantize_and_freeze(
        model, precision=precision, sc_resolution=True, soft_threshold=0.02
    )
    retrain(sc_model, x_train, data.y_train, epochs=3, optimizer=Adam(2e-3))
    print(f"  done ({time.time() - start:.0f}s)")

    print("Evaluating the stochastic first layer (bit-exact counters) ...")
    start = time.time()
    results = {"binary (quantized first layer)": binary_error}
    for label, engine_factory in (
        ("this work (TFF adder, ramp input)", new_sc_engine),
        ("old SC (MUX adder, LFSR SNGs)", old_sc_engine),
    ):
        hybrid = HybridStochasticBinaryNetwork(
            sc_model, engine=engine_factory(precision), soft_threshold=0.02
        )
        error = hybrid.misclassification_rate(data.x_test, data.y_test, mode="bitexact")
        results[label] = error
    print(f"  done ({time.time() - start:.0f}s)")

    print()
    print(f"Misclassification rates at {precision}-bit first-layer precision:")
    for label, error in results.items():
        print(f"  {label:<38} {100 * error:6.2f}%")

    print()
    print("Try different precisions: python examples/hybrid_digit_classification.py 4")


if __name__ == "__main__":
    main()
