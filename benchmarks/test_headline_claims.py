"""Benchmark E8 -- the paper's headline claims (abstract / conclusion).

Claims checked against the reproduction:

1. "9.8x energy efficiency savings" at 4-bit precision, break-even at 8-bit;
2. "application-level accuracies within 0.05%" of the all-binary design
   (8-bit) -- relaxed here because the dataset and training budget are scaled
   down, see ``conftest.py``;
3. "up to 2.92% better accuracy than previous SC designs";
4. retraining compensates for the precision loss introduced by SC.
"""

from repro.eval import format_headline_claims, run_table3_hardware, summarize


def test_headline_claims(benchmark, accuracy_result):
    hardware = benchmark.pedantic(
        run_table3_hardware,
        kwargs={"precisions": (8, 7, 6, 5, 4, 3, 2)},
        rounds=1,
        iterations=1,
    )
    claims = summarize(hardware, accuracy_result)
    print()
    print(format_headline_claims(claims))

    # Claim 1: order-of-magnitude energy advantage at 4 bits, break-even at 8.
    assert claims.energy_ratio_4bit > 5.0
    assert claims.break_even_precision == 8

    # Claim 2: the hybrid design tracks the binary design at 8- and 4-bit
    # precision.  The paper reports 0.05% / 0.25% gaps on MNIST with a fully
    # trained LeNet-5; the scaled-down reproduction allows a few percent.
    assert claims.accuracy_gap_8bit_pct is not None
    assert claims.accuracy_gap_8bit_pct < 10.0
    assert claims.accuracy_gap_4bit_pct is not None
    assert claims.accuracy_gap_4bit_pct < 10.0

    # Claim 3: the proposed design improves on the old SC design at at least
    # one precision point.
    assert claims.max_improvement_over_old_sc_pct is not None
    assert claims.max_improvement_over_old_sc_pct > 0.0

    # Claim 4: retraining recovers accuracy (no-retraining row is far worse).
    rates = accuracy_result.rates
    for precision in rates["binary"]:
        assert rates["binary"][precision] < rates["binary_no_retrain"][precision]

    # Bonus: area ratio at 4 bits close to the paper's ~2x.
    assert 1.3 < claims.area_ratio_4bit < 3.5
