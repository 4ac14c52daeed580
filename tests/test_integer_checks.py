"""Integer arguments fail where they are passed, through one helper.

Precisions, strides, paddings, sizes and epochs are checked by
:func:`repro.utils.check_count` in the constructors that take them: NumPy
integers are accepted, bools and floats rejected, so a bad value fails with
a ``ValueError`` at the boundary instead of a ``TypeError`` deep inside an
evaluation or a silent rounding.  The CLI's ``--quick`` presets fill only
the flags the user did not pass; the tests check the configs built, without
training.
"""

import numpy as np
import pytest

from repro.bitstream import stream_length
from repro.cli import _accuracy_config, _fault_sweep_config, build_parser, main
from repro.eval import AccuracyConfig
from repro.faults import FaultSpec
from repro.faults.sweep import DEFAULT_RATES, FaultSweepConfig
from repro.hybrid import HybridStochasticBinaryNetwork, SensorFrontEnd
from repro.nn import Conv2D, Dense, MaxPool2D, build_lenet5_small, quantize_and_freeze
from repro.rng import RampCompareSNG, VanDerCorputSource
from repro.sc import BipolarDotProductEngine, StochasticConv2D, new_sc_engine
from repro.utils import check_count, conv_output_size

KERNELS = np.full((2, 3, 3), 0.5)


def hybrid_network(calibration_samples):
    """A hybrid network on a frozen, untrained LeNet-small at precision 4."""
    model = quantize_and_freeze(build_lenet5_small(seed=0), precision=4)
    return HybridStochasticBinaryNetwork(
        model, engine=new_sc_engine(4), calibration_samples=calibration_samples
    )


class TestCheckCount:
    def test_messages(self):
        with pytest.raises(ValueError, match="batch_size must be a positive integer, got 0"):
            check_count("batch_size", 0)
        with pytest.raises(ValueError, match="epochs must be a non-negative integer, got -1"):
            check_count("epochs", -1, 0)
        with pytest.raises(ValueError, match=r"limit must be a positive integer or None, got 2\.5"):
            check_count("limit", 2.5, optional=True)
        with pytest.raises(ValueError, match="precision must be an integer of at least 2, got 1"):
            check_count("precision", 1, 2)

    def test_numpy_integers_accepted_bools_rejected(self):
        assert check_count("n", np.int64(3)) == 3
        assert check_count("n", None, optional=True) is None
        with pytest.raises(ValueError):
            check_count("n", True)
        with pytest.raises(ValueError):
            check_count("n", None)


class TestPrecision:
    def test_unipolar_engine_rejects_float_precision(self):
        with pytest.raises(ValueError, match="precision"):
            new_sc_engine(8.0)

    def test_bipolar_engine_rejects_float_precision(self):
        with pytest.raises(ValueError, match="precision"):
            BipolarDotProductEngine(precision=8.5)

    def test_stream_length_rejects_float_precision(self):
        with pytest.raises(ValueError, match="precision_bits"):
            stream_length(8.5)

    def test_sensor_front_end_rejects_float_precision(self):
        with pytest.raises(ValueError, match="precision"):
            SensorFrontEnd(precision=8.5)

    def test_numpy_integers_accepted_bools_rejected(self):
        assert stream_length(np.int64(4)) == 16
        assert new_sc_engine(np.int64(6)).length == 64
        assert BipolarDotProductEngine(precision=np.int32(5)).length == 32
        assert SensorFrontEnd(precision=np.int16(4)).stream_length == 16
        with pytest.raises(ValueError):
            stream_length(True)
        with pytest.raises(ValueError):
            new_sc_engine(True)


class TestConvGeometry:
    def test_stochastic_conv_rejects_zero_stride(self):
        with pytest.raises(ValueError, match="stride"):
            StochasticConv2D(KERNELS, stride=0)

    def test_conv2d_rejects_zero_stride(self):
        with pytest.raises(ValueError, match="stride"):
            Conv2D(1, 2, 3, stride=0)

    @pytest.mark.parametrize("make", [
        lambda: StochasticConv2D(KERNELS, stride=1.5),
        lambda: Conv2D(1, 2, 3, stride=1.5),
    ])
    def test_fractional_stride_rejected(self, make):
        with pytest.raises(ValueError, match="stride"):
            make()

    @pytest.mark.parametrize("make", [
        lambda: StochasticConv2D(KERNELS, padding=-1),
        lambda: Conv2D(1, 2, 3, padding=-1),
    ])
    def test_negative_padding_rejected(self, make):
        with pytest.raises(ValueError, match="padding must be a non-negative integer"):
            make()

    def test_conv_output_size_rejects_stride_below_one(self):
        with pytest.raises(ValueError, match="stride"):
            conv_output_size(28, 5, 0, 2)

    def test_numpy_integers_accepted_bools_rejected(self):
        conv = Conv2D(1, 2, 3, stride=np.int64(2), padding=np.int32(1))
        assert (conv.stride, conv.padding) == (2, 1)
        assert conv.forward(np.zeros((1, 1, 6, 6))).shape == (1, 2, 3, 3)
        layer = StochasticConv2D(KERNELS, stride=np.int64(2), padding=np.int8(1))
        assert (layer.stride, layer.padding) == (2, 1)
        with pytest.raises(ValueError):
            Conv2D(1, 2, 3, stride=True)
        with pytest.raises(ValueError):
            StochasticConv2D(KERNELS, padding=False)


class TestFaultsSourcesAndLayers:
    @pytest.mark.parametrize("make, name", [
        pytest.param(lambda: FaultSpec(seed=1.5), "seed", id="fault_spec_float_seed"),
        pytest.param(lambda: FaultSpec(seed=True), "seed", id="fault_spec_bool_seed"),
        pytest.param(lambda: FaultSweepConfig(kernel=2.5), "kernel", id="sweep_kernel"),
        pytest.param(lambda: FaultSweepConfig(trials=1.5), "trials", id="sweep_trials"),
        pytest.param(lambda: FaultSweepConfig(precision=8.5), "precision", id="sweep_precision"),
        pytest.param(lambda: FaultSweepConfig(images=1.5), "images", id="sweep_images"),
        pytest.param(lambda: VanDerCorputSource(8.5), "bits", id="van_der_corput_bits"),
        pytest.param(lambda: RampCompareSNG(8.5), "bits", id="ramp_compare_bits"),
        pytest.param(lambda: MaxPool2D(2.5), "pool_size", id="max_pool_size"),
        pytest.param(lambda: Dense(4.5, 2), "in_features", id="dense_in_features"),
        *(
            pytest.param(
                lambda samples=samples: hybrid_network(samples),
                "calibration_samples",
                id=f"hybrid_calibration_samples_{samples!r}",
            )
            for samples in (0, -3, 2.5, "8", True)
        ),
    ])
    def test_fractional_and_bool_counts_rejected(self, make, name):
        with pytest.raises(ValueError, match=f"{name} must be"):
            make()

    def test_numpy_integers_accepted(self):
        assert FaultSpec(seed=np.int32(1)) == FaultSpec(seed=1)
        assert hybrid_network(np.int64(16)).calibration_samples == 16
        config = FaultSweepConfig(kernel=np.int64(3), trials=np.int8(1), precision=np.int16(6))
        assert (config.kernel, config.trials, config.precision) == (3, 1, 6)
        assert VanDerCorputSource(np.int64(3)).sequence(8).shape == (8,)
        assert RampCompareSNG(np.int64(3)).generate(0.5, 8).bits.sum() == 4
        assert MaxPool2D(np.int64(2)).forward(np.zeros((1, 1, 4, 4))).shape == (1, 1, 2, 2)
        assert Dense(np.int64(4), np.int32(2)).forward(np.zeros((3, 4))).shape == (3, 2)


class TestAccuracyConfig:
    @pytest.mark.parametrize("field, value", [
        ("train_size", 0),
        ("test_size", 2.5),
        ("baseline_epochs", -1),
        ("retrain_epochs", 1.5),
        ("batch_size", 0),
        ("sc_eval_images", True),
    ])
    def test_rejects_bad_sizes_and_epochs(self, field, value):
        with pytest.raises(ValueError, match=field):
            AccuracyConfig(**{field: value})

    @pytest.mark.parametrize("precisions", [(8, 1), (8.5,), (), (True,)])
    def test_rejects_bad_precisions(self, precisions):
        # Checked before any training: (8, 1) used to train the baseline and
        # score every 8-bit row before quantize_and_freeze raised.
        with pytest.raises(ValueError, match="precision"):
            AccuracyConfig(precisions=precisions)

    def test_accepts_numpy_integers_and_unset_sizes(self):
        config = AccuracyConfig(train_size=np.int64(40), baseline_epochs=np.int32(0))
        assert config.train_size == 40 and config.test_size is None

    def test_cli_negative_retrain_epochs_is_a_clean_error(self):
        argv = ["accuracy", "--train-size", "50", "--test-size", "10",
                "--precisions", "8", "--epochs", "1", "--retrain-epochs", "-2"]
        with pytest.raises(SystemExit, match="repro: error: retrain_epochs"):
            main(argv)


def accuracy_config(*flags):
    return _accuracy_config(build_parser().parse_args(["accuracy", *flags]))


def fault_config(*flags):
    return _fault_sweep_config(build_parser().parse_args(["faults", *flags]))


class TestQuickKeepsPassedFlags:
    def test_plain_quick_is_the_preset(self):
        config = accuracy_config("--quick")
        assert tuple(config.precisions) == (8, 4, 2)
        assert (config.train_size, config.test_size) == (400, 120)
        assert (config.baseline_epochs, config.retrain_epochs) == (2, 1)

    def test_full_run_defaults(self):
        config = accuracy_config()
        assert tuple(config.precisions) == (8, 6, 4, 3, 2)
        assert (config.train_size, config.test_size) == (None, None)
        assert (config.baseline_epochs, config.retrain_epochs) == (4, 3)

    def test_quick_keeps_passed_accuracy_flags(self):
        config = accuracy_config("--quick", "--precisions", "6", "--train-size", "50",
                                 "--epochs", "3")
        assert tuple(config.precisions) == (6,)
        assert (config.train_size, config.test_size) == (50, 120)
        assert (config.baseline_epochs, config.retrain_epochs) == (3, 1)

    def test_quick_negative_epochs_is_an_error(self):
        with pytest.raises(SystemExit, match="repro: error: baseline_epochs"):
            accuracy_config("--quick", "--epochs", "-1")

    def test_plain_quick_faults_is_the_preset(self):
        config = fault_config("--quick")
        assert config.rates == (0.0, 1e-3, 1e-2)
        assert (config.images, config.filters, config.trials) == (2, 4, 1)
        assert (config.precision, config.kernel, config.seed) == (8, 5, 0)

    def test_full_faults_defaults(self):
        config = fault_config()
        assert tuple(config.rates) == tuple(DEFAULT_RATES)
        assert (config.images, config.filters, config.trials) == (6, 8, 2)

    def test_quick_keeps_passed_fault_flags(self):
        config = fault_config("--quick", "--images", "3", "--filters", "5", "--trials", "2",
                              "--rates", "0,0.5")
        assert config.rates == (0.0, 0.5)
        assert (config.images, config.filters, config.trials) == (3, 5, 2)

    def test_quick_zero_images_is_an_error(self):
        with pytest.raises(SystemExit, match="repro: error"):
            fault_config("--quick", "--images", "0")
