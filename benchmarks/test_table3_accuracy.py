"""Benchmark E3 -- regenerate Table 3 (top): misclassification rate vs. precision.

Paper reference (misclassification rate, %):

    Design     8 Bits  7 Bits  6 Bits  5 Bits  4 Bits  3 Bits  2 Bits
    Binary      0.89    0.86    0.89    0.74    0.79    0.79    1.30
    Old SC      2.22    3.91    1.30    1.55    1.63    2.71    4.89
    This Work   0.94    0.99    1.04    1.12    1.04    2.20   43.82

The stochastic rows are scored from bit-exact counters.  Absolute rates
differ from the paper because the dataset is the synthetic MNIST substitute
and the training budget is scaled down (see :mod:`repro.datasets.synthetic`
and ``conftest.py``); the assertions check the paper's qualitative findings:

* retraining recovers most of the accuracy lost to quantization + sign
  activation (the no-retraining ablation row is far worse);
* the proposed stochastic design ("This Work") tracks the binary design
  closely at moderate precision and beats the old SC design on average;
* at 2-bit precision the stochastic first layer degrades sharply.
"""

import numpy as np

from repro.eval import AccuracyConfig, format_table3_accuracy, run_table3_accuracy


def test_table3_accuracy_scaling_run(benchmark):
    """Time a miniature accuracy run (the shared fixture holds the larger one)."""
    config = AccuracyConfig(
        precisions=(6, 4),
        train_size=400,
        test_size=150,
        baseline_epochs=2,
        retrain_epochs=1,
        seed=1,
    )
    result = benchmark.pedantic(
        run_table3_accuracy, args=(config,), rounds=1, iterations=1
    )
    assert set(result.rates) == {"binary", "old_sc", "this_work"}
    for design in result.rates.values():
        for rate in design.values():
            assert 0.0 <= rate <= 1.0


def test_table3_accuracy_paper_trends(benchmark, accuracy_result):
    """Check the paper's qualitative accuracy findings on the shared run.

    The heavy experiment itself runs once in the shared session fixture; the
    benchmarked payload here is the table formatting, so this test still
    executes (and prints the table) under ``--benchmark-only``.
    """
    print()
    print(benchmark.pedantic(format_table3_accuracy, args=(accuracy_result,), rounds=1, iterations=1))

    rates = accuracy_result.rates
    precisions = sorted(rates["binary"], reverse=True)
    moderate = [p for p in precisions if p >= 4]

    # Retraining recovers most of the loss introduced by quantization + sign
    # activation: the retrained binary row must be far better than the
    # no-retraining ablation at every precision.
    for p in precisions:
        assert rates["binary"][p] < rates["binary_no_retrain"][p] - 0.10, p

    # The binary row stays close to the full-precision baseline at >= 4 bits.
    for p in moderate:
        assert rates["binary"][p] < accuracy_result.baseline_misclassification + 0.15

    # "This Work" tracks the binary design closely at moderate precision ...
    for p in moderate:
        assert accuracy_result.gap_to_binary("this_work", p) < 0.10, p

    # ... and is no worse than the old SC design on average.
    new_mean = np.mean([rates["this_work"][p] for p in moderate])
    old_mean = np.mean([rates["old_sc"][p] for p in moderate])
    assert new_mean <= old_mean + 0.02

    # At 2 bits the stochastic first layer degrades sharply relative to its
    # own moderate-precision accuracy (the paper reports a collapse to 43.8%).
    if 2 in rates["this_work"]:
        assert rates["this_work"][2] > rates["this_work"][max(moderate)] + 0.05
