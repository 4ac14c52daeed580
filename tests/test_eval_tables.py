"""Tests for the experiment harness (Tables 1-3, summary, report formatting)."""

import numpy as np
import pytest

import netlist_oracle
from repro.datasets import load_dataset
from repro.eval import table3_accuracy, table3_hardware
from repro.eval import (
    AccuracyConfig,
    HeadlineClaims,
    adder_mse,
    format_headline_claims,
    format_table1,
    format_table2,
    format_table3_accuracy,
    format_table3_hardware,
    multiplier_mse,
    run_table1,
    run_table2,
    run_table3_accuracy,
    run_table3_hardware,
    summarize,
)
from repro.hybrid import CalibratedSCEmulator, HybridStochasticBinaryNetwork
from repro.nn import Adam, quantize_and_freeze, retrain
from repro.sc import new_sc_engine, old_sc_engine


class TestTable1:
    @pytest.fixture(scope="class")
    def result(self):
        # 6-bit and 4-bit keep the exhaustive sweep fast while preserving the
        # qualitative ordering; the benchmark runs the full 8-bit version.
        return run_table1(precisions=(6, 4))

    def test_all_schemes_present(self, result):
        assert set(result.mse) == {
            "shared_lfsr",
            "two_lfsrs",
            "low_discrepancy",
            "ramp_low_discrepancy",
        }

    def test_paper_ordering(self, result):
        # Paper Table 1: shared LFSR worst, ramp + low-discrepancy best.
        for precision in (6, 4):
            ordering = result.ordering_at(precision)
            assert ordering[0] == "shared_lfsr"
            assert result.best_scheme(precision) in (
                "ramp_low_discrepancy",
                "low_discrepancy",
            )
            assert (
                result.mse["shared_lfsr"][precision]
                > 3 * result.mse["ramp_low_discrepancy"][precision]
            )

    def test_mse_decreases_with_precision(self):
        for scheme in ("low_discrepancy", "ramp_low_discrepancy"):
            assert multiplier_mse(scheme, 7) < multiplier_mse(scheme, 4)

    def test_formatting(self, result):
        text = format_table1(result)
        assert "Table 1" in text
        assert "Ramp-compare" in text


class TestTable2:
    @pytest.fixture(scope="class")
    def result(self):
        return run_table2(precisions=(6, 4))

    def test_all_configs_present(self, result):
        assert set(result.mse) == {
            "old_random_lfsr",
            "old_random_tff",
            "old_lfsr_tff",
            "new_tff",
        }

    def test_new_adder_dominates(self, result):
        # Paper Table 2: the TFF adder is at least an order of magnitude more
        # accurate than every MUX-adder configuration.
        for precision in (6, 4):
            new = result.mse["new_tff"][precision]
            for config in ("old_random_lfsr", "old_random_tff", "old_lfsr_tff"):
                assert result.mse[config][precision] > 4 * new
        assert result.improvement_factor(6) > 4

    def test_new_adder_error_is_at_quantization_level(self):
        # The TFF adder's only error is the half-LSB rounding; its MSE must be
        # on the order of (1 / 2N)^2.
        precision = 6
        n = 2**precision
        assert adder_mse("new_tff", precision) < (1.0 / n) ** 2

    def test_unknown_config_rejected(self):
        with pytest.raises(ValueError):
            adder_mse("quantum_adder", 4)

    def test_formatting(self, result):
        text = format_table2(result)
        assert "Table 2" in text
        assert "New adder" in text


@pytest.fixture(scope="module")
def accuracy_result():
    """A miniature Table 3 accuracy run (small dataset, few epochs, 3 precisions)."""
    config = AccuracyConfig(
        precisions=(6, 4, 2),
        train_size=300,
        test_size=100,
        baseline_epochs=2,
        retrain_epochs=1,
        sc_eval_images=60,
        include_no_retrain=True,
        seed=0,
    )
    return run_table3_accuracy(config)


class TestTable3Accuracy:
    def test_designs_and_precisions_present(self, accuracy_result):
        assert set(accuracy_result.rates) == {
            "binary",
            "old_sc",
            "this_work",
            "binary_no_retrain",
        }
        for design in accuracy_result.rates.values():
            assert set(design) == {6, 4, 2}

    def test_rates_are_valid_probabilities(self, accuracy_result):
        for design in accuracy_result.rates.values():
            for rate in design.values():
                assert 0.0 <= rate <= 1.0

    def test_metadata(self, accuracy_result):
        assert accuracy_result.train_size == 300
        assert accuracy_result.test_size == 100
        assert accuracy_result.sc_test_size == 60
        assert 0.0 <= accuracy_result.baseline_misclassification <= 1.0

    def test_helper_accessors(self, accuracy_result):
        gap = accuracy_result.gap_to_binary("this_work", 6)
        assert isinstance(gap, float)
        improvement = accuracy_result.improvement_over_old_sc(6)
        assert isinstance(improvement, float)

    def test_formatting(self, accuracy_result):
        text = format_table3_accuracy(accuracy_result)
        assert "Misclassification" in text
        assert "This Work" in text
        assert "%" in text
        assert "stochastic rows: bit-exact on 60 test images" in text

    def test_stochastic_rows_are_scored_bit_exactly(self, monkeypatch):
        # Every stochastic rate is the bit-exact rate of a network built the
        # way the harness builds it; the emulator never runs.
        for name in ("calibrate", "forward"):
            monkeypatch.setattr(
                CalibratedSCEmulator, name, lambda *a, **k: pytest.fail("emulator ran")
            )
        config = AccuracyConfig(
            precisions=(6, 4), train_size=200, test_size=80, baseline_epochs=1,
            retrain_epochs=1, sc_eval_images=60, seed=3,
        )
        result = run_table3_accuracy(config)
        assert result.sc_test_size == 60

        data = load_dataset(train_size=200, test_size=80, seed=3)
        x_train = data.x_train[:, np.newaxis, :, :]
        baseline = table3_accuracy._train_baseline(x_train, data.y_train, config)
        for precision in config.precisions:
            sc_model = quantize_and_freeze(
                baseline, precision=precision, sc_resolution=True,
                soft_threshold=config.soft_threshold,
            )
            retrain(
                sc_model, x_train, data.y_train, epochs=config.retrain_epochs,
                batch_size=config.batch_size,
                optimizer=Adam(config.learning_rate),
                rng=np.random.default_rng(config.seed + 100 + precision),
            )
            for design, factory in (("this_work", new_sc_engine), ("old_sc", old_sc_engine)):
                hybrid = HybridStochasticBinaryNetwork(
                    sc_model, engine=factory(precision, seed=config.seed + 1),
                    soft_threshold=config.soft_threshold, seed=config.seed,
                )
                exact = hybrid.misclassification_rate(
                    data.x_test[:60], data.y_test[:60], mode="bitexact"
                )
                assert result.rates[design][precision] == exact, (design, precision)

    @pytest.mark.parametrize("name", ["REPRO_TRAIN_SIZE", "REPRO_TEST_SIZE"])
    @pytest.mark.parametrize("value", ["abc", "-4"])
    def test_size_env_checked_when_used(self, monkeypatch, name, value):
        # The config checks the size variables load_dataset will read, so a
        # bad value fails before any training -- and only when it is read.
        monkeypatch.setenv(name, value)
        with pytest.raises(ValueError, match=name):
            AccuracyConfig()
        AccuracyConfig(train_size=10, test_size=10)

    def test_eval_images_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_EVAL_IMAGES", "42")
        assert AccuracyConfig().sc_eval_images == 42

    @pytest.mark.parametrize("value", ["-5", "0", "abc", ""])
    def test_eval_images_env_must_be_positive(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_EVAL_IMAGES", value)
        with pytest.raises(ValueError, match="REPRO_EVAL_IMAGES"):
            AccuracyConfig()

    @pytest.mark.parametrize("value", [-3, 0, 2.5, True])
    def test_eval_images_must_be_positive(self, monkeypatch, value):
        monkeypatch.delenv("REPRO_EVAL_IMAGES", raising=False)
        with pytest.raises(ValueError, match="sc_eval_images"):
            AccuracyConfig(sc_eval_images=value)
        assert AccuracyConfig().sc_eval_images is None


class TestTable3Hardware:
    @pytest.fixture(scope="class")
    def result(self):
        return run_table3_hardware(precisions=(8, 6, 4, 2))

    def test_rows_and_accessors(self, result):
        assert [row.precision for row in result.rows] == [8, 6, 4, 2]
        assert result.break_even_precision() == 8
        assert result.energy_efficiency_at(4) > 5.0
        assert result.area_ratio_at(4) > 1.5

    def test_formatting(self, result):
        text = format_table3_hardware(result)
        assert "Power" in text and "Energy" in text and "Area" in text
        assert "calibrated" in text

    def test_measured_activity_mode(self):
        measured = run_table3_hardware(precisions=(5, 4), activity_traces=3)
        assert measured.measured_activity is not None
        assert 0.0 < measured.measured_activity < 1.0
        # Determinism: the same seed measures the same activity.
        again = run_table3_hardware(precisions=(5, 4), activity_traces=3)
        assert again.measured_activity == measured.measured_activity
        default = run_table3_hardware(precisions=(5, 4))
        assert default.measured_activity is None
        # The measurement must actually shift the calibrated rows: the
        # anchoring factors are computed with the technology-default
        # activity, so they cannot cancel the measured value back out.
        for row, default_row in zip(measured.rows, default.rows):
            assert row.sc_power_mw != default_row.sc_power_mw
            assert row.binary_power_mw == default_row.binary_power_mw

    def test_measured_activity_is_per_precision(self):
        measured = run_table3_hardware(precisions=(5, 4), activity_traces=3)
        by_precision = measured.measured_activity_by_precision
        assert set(by_precision) == {5, 4}
        assert all(0.0 < activity < 1.0 for activity in by_precision.values())
        # Each precision column is measured at its own stream length, not
        # copied from the highest precision.
        assert by_precision[5] != by_precision[4]
        assert measured.measured_activity == by_precision[5]
        # Each row's power model is driven by its own precision's activity:
        # a run measuring only that precision produces the identical row.
        solo = run_table3_hardware(precisions=(4,), activity_traces=3)
        assert solo.measured_activity_by_precision[4] == by_precision[4]
        assert (
            solo.by_precision()[4].sc_power_mw
            == measured.by_precision()[4].sc_power_mw
        )
        default = run_table3_hardware(precisions=(5, 4))
        assert default.measured_activity_by_precision is None

    def test_hardware_comparison_accepts_activity_mapping(self):
        from repro.hw import HardwareComparison

        low, high = 0.05, 0.25
        mapping = HardwareComparison(sc_activity={8: low, 4: high})
        assert mapping.sc_activity_at(8) == low
        assert mapping.sc_activity_at(4) == high
        assert mapping.sc_activity_at(6) is None  # falls back to the default
        scalar_low = HardwareComparison(sc_activity=low)
        scalar_high = HardwareComparison(sc_activity=high)
        default = HardwareComparison()
        assert mapping.row(8).sc_power_mw == scalar_low.row(8).sc_power_mw
        assert mapping.row(4).sc_power_mw == scalar_high.row(4).sc_power_mw
        assert mapping.row(6).sc_power_mw == default.row(6).sc_power_mw

    def test_raw_mode(self):
        raw = run_table3_hardware(precisions=(8, 4), calibrate=False)
        assert not raw.calibrated
        assert raw.rows[0].binary_power_mw > 0


class TestMeasureScActivity:
    """Trace-driven switching activity via batched netlist simulation."""

    def test_batched_result_matches_oracle(self, monkeypatch):
        runs = {}
        for name, simulate in (
            ("packed", table3_hardware.simulate_batch),
            ("oracle", netlist_oracle.simulate_batch),
        ):
            def record(netlist, stimulus, strict=False, name=name, simulate=simulate):
                runs[name] = simulate(netlist, stimulus, strict=strict)
                return runs[name]

            monkeypatch.setattr(table3_hardware, "simulate_batch", record)
            activity = table3_hardware.measure_sc_activity(4, 3, taps=4, seed=2)
            assert activity == runs[name].average_activity()
        packed, reference = runs["packed"], runs["oracle"]
        assert packed.batch == reference.batch == 3
        assert packed.cycles == new_sc_engine(4).length
        assert packed.total_toggles() == reference.total_toggles()
        assert set(packed.toggles) == set(reference.toggles)
        for net in packed.toggles:
            np.testing.assert_array_equal(
                packed.toggles[net], reference.toggles[net], err_msg=net
            )
        for net in reference.waveforms:
            np.testing.assert_array_equal(
                packed.waveforms[net], reference.waveforms[net], err_msg=net
            )
        assert 0.0 < packed.average_activity() < 1.0

    @pytest.mark.parametrize("traces", [0, -1, 2.5, True])
    def test_traces_must_be_a_positive_integer(self, traces):
        with pytest.raises(ValueError, match="traces"):
            table3_hardware.measure_sc_activity(4, traces)
        if traces:  # activity_traces=0 keeps the technology default
            with pytest.raises(ValueError, match="traces"):
                run_table3_hardware(precisions=(4,), activity_traces=traces)


class TestSummary:
    def test_summary_from_hardware_only(self):
        hardware = run_table3_hardware(precisions=(8, 6, 4, 2))
        claims = summarize(hardware)
        assert isinstance(claims, HeadlineClaims)
        assert claims.energy_ratio_4bit > 5.0
        assert claims.break_even_precision == 8
        assert claims.accuracy_gap_8bit_pct is None
        text = format_headline_claims(claims)
        assert "energy efficiency" in text

    def test_summary_with_accuracy(self, accuracy_result):
        hardware = run_table3_hardware(precisions=(8, 6, 4, 2))
        claims = summarize(hardware, accuracy_result)
        assert claims.accuracy_gap_4bit_pct is not None
        assert claims.max_improvement_over_old_sc_pct is not None
        assert "accuracy gap" in format_headline_claims(claims)
        as_dict = claims.as_dict()
        assert "energy_ratio_4bit" in as_dict
