"""Tests for the hybrid stochastic-binary pipeline: acquisition, emulation, network."""

import numpy as np
import pytest

from repro.datasets import SyntheticDigits
from repro.hybrid import CalibratedSCEmulator, HybridStochasticBinaryNetwork, SensorFrontEnd
from repro.nn import Adam, build_lenet5_small, quantize_and_freeze, retrain
from repro.nn.activations import Sign
from repro.nn.layers import Conv2D
from repro.nn.network import Sequential
from repro.sc import new_sc_engine, old_sc_engine


class TestSensorFrontEnd:
    def test_validation(self):
        with pytest.raises(ValueError):
            SensorFrontEnd(precision=1)
        with pytest.raises(ValueError):
            SensorFrontEnd().acquire(np.array([[1.5]]))
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="finite"):
                SensorFrontEnd().acquire(np.array([[0.5, bad]]))

    def test_stream_length(self):
        assert SensorFrontEnd(precision=6).stream_length == 64

    def test_noise_free_acquire_is_identity(self):
        images = np.random.default_rng(0).random((2, 4, 4))
        np.testing.assert_allclose(SensorFrontEnd().acquire(images), images)

    def test_conversion_energy_metadata(self):
        fe = SensorFrontEnd(conversion_energy_pj=100.0)
        assert fe.conversion_energy_nj(784) == pytest.approx(78.4)
        with pytest.raises(ValueError):
            fe.conversion_energy_nj(-1)


class TestCalibratedEmulator:
    @pytest.fixture(scope="class")
    def setup(self):
        rng = np.random.default_rng(0)
        inputs = rng.random((128, 25))
        kernels = rng.uniform(-1, 1, size=(4, 25))
        return inputs, kernels

    def test_requires_calibration(self, setup):
        inputs, kernels = setup
        emulator = CalibratedSCEmulator(new_sc_engine(precision=5))
        with pytest.raises(RuntimeError):
            emulator.forward_patches(inputs[np.newaxis], kernels)

    def test_calibration_statistics(self, setup):
        inputs, kernels = setup
        emulator = CalibratedSCEmulator(new_sc_engine(precision=5))
        model = emulator.calibrate(inputs, kernels)
        assert model.samples == 128 * 4
        assert model.residuals.shape == (128 * 4,)
        # The proposed engine's counter-difference error is small (a few LSBs):
        # positive- and negative-path rounding errors largely cancel.
        assert abs(model.bias) < 3.0
        assert model.sigma < 3.0

    def test_old_engine_has_larger_error(self, setup):
        inputs, kernels = setup
        new = CalibratedSCEmulator(new_sc_engine(precision=5)).calibrate(inputs, kernels)
        old = CalibratedSCEmulator(old_sc_engine(precision=5)).calibrate(inputs, kernels)
        assert old.sigma > new.sigma

    def test_calibration_validation(self, setup):
        inputs, kernels = setup
        emulator = CalibratedSCEmulator(new_sc_engine(precision=4))
        with pytest.raises(ValueError):
            emulator.calibrate(inputs[:, :10], kernels)
        with pytest.raises(ValueError):
            emulator.calibrate(inputs.ravel(), kernels)

    def test_emulated_signs_agree_with_bitexact(self, setup):
        inputs, kernels = setup
        engine = new_sc_engine(precision=6)
        emulator = CalibratedSCEmulator(engine, seed=1)
        emulator.calibrate(inputs[:64], kernels)

        # Bit-exact reference on a small batch of images.
        rng = np.random.default_rng(1)
        images = rng.random((2, 10, 10))
        from repro.sc import StochasticConv2D

        layer = StochasticConv2D(kernels.reshape(4, 5, 5), engine=engine, padding=2)
        exact_sign = layer.forward(images).sign
        emulated_sign = emulator.forward(images, kernels.reshape(4, 5, 5), padding=2)
        agreement = np.mean(exact_sign == emulated_sign)
        # On uniform-random inputs many dot products sit near zero where the
        # sign genuinely flickers; agreement must still be far above the 1/3
        # chance level, and near-perfect on confident outputs.
        assert agreement > 0.7
        reference = layer.forward(images).value
        confident = np.abs(reference) > 0.5
        assert np.mean(exact_sign[confident] == emulated_sign[confident]) > 0.9

    def test_forward_kernel_shape_validation(self, setup):
        inputs, kernels = setup
        emulator = CalibratedSCEmulator(new_sc_engine(precision=4))
        emulator.calibrate(inputs, kernels)
        with pytest.raises(ValueError):
            emulator.forward(np.zeros((1, 8, 8)), kernels)  # kernels not 3-D


@pytest.fixture(scope="module")
def trained_hybrid_setup():
    """A small trained + quantized/retrained model on a small synthetic dataset."""
    data = SyntheticDigits.generate(train_size=800, test_size=160, seed=1)
    x_train = data.x_train[:, np.newaxis, :, :]
    model = build_lenet5_small(
        filters1=8, filters2=8, hidden_units=32, seed=0, dropout_rate=0.0
    )
    model.fit(x_train, data.y_train, epochs=5, batch_size=64, optimizer=Adam(2e-3))
    frozen = quantize_and_freeze(model, precision=6)
    retrain(frozen, x_train, data.y_train, epochs=3, optimizer=Adam(2e-3))
    return data, frozen


class TestHybridNetwork:
    def test_requires_sign_first_layer(self):
        model = build_lenet5_small(filters1=4, hidden_units=16)
        with pytest.raises(ValueError):
            HybridStochasticBinaryNetwork(model)

    @pytest.mark.parametrize("bad", [2.0, np.nan])
    def test_first_layer_weights_must_be_conditioned(self, bad):
        first = Conv2D(1, 2, 3, padding=1, activation=Sign())
        first.weights[...] = 0.5
        first.weights[1, 0, 1, 1] = bad
        with pytest.raises(ValueError, match=r"finite and conditioned into \[-1, 1\]"):
            HybridStochasticBinaryNetwork(Sequential([first]), engine=new_sc_engine(4))

    def test_precision_mismatch_rejected(self, trained_hybrid_setup):
        _, frozen = trained_hybrid_setup
        with pytest.raises(ValueError):
            HybridStochasticBinaryNetwork(
                frozen,
                engine=new_sc_engine(precision=6),
                front_end=SensorFrontEnd(precision=4),
            )

    def test_kernels_extracted_from_first_layer(self, trained_hybrid_setup):
        _, frozen = trained_hybrid_setup
        hybrid = HybridStochasticBinaryNetwork(frozen, engine=new_sc_engine(6))
        assert hybrid.kernels.shape == (8, 5, 5)
        assert hybrid.precision == 6
        assert np.abs(hybrid.kernels).max() <= 1.0
        assert "HybridStochasticBinaryNetwork" in repr(hybrid)

    def test_binary_mode_matches_frozen_model(self, trained_hybrid_setup):
        data, frozen = trained_hybrid_setup
        hybrid = HybridStochasticBinaryNetwork(frozen, engine=new_sc_engine(6))
        x_test = data.x_test[:32]
        binary_rate = hybrid.misclassification_rate(x_test, data.y_test[:32], mode="binary")
        reference = frozen.misclassification_rate(
            x_test[:, np.newaxis, :, :], data.y_test[:32]
        )
        assert binary_rate == pytest.approx(reference)

    def test_emulate_mode_close_to_binary(self, trained_hybrid_setup):
        data, frozen = trained_hybrid_setup
        hybrid = HybridStochasticBinaryNetwork(
            frozen, engine=new_sc_engine(6), soft_threshold=0.02
        )
        x_test, y_test = data.x_test, data.y_test
        binary_rate = hybrid.misclassification_rate(x_test, y_test, mode="binary")
        sc_rate = hybrid.misclassification_rate(x_test, y_test, mode="emulate")
        # The proposed design should track the binary design closely.
        assert abs(sc_rate - binary_rate) < 0.15

    def test_bitexact_mode_on_tiny_subset(self, trained_hybrid_setup):
        data, frozen = trained_hybrid_setup
        hybrid = HybridStochasticBinaryNetwork(
            frozen, engine=new_sc_engine(5), front_end=SensorFrontEnd(precision=5)
        )
        rate = hybrid.misclassification_rate(
            data.x_test, data.y_test, mode="bitexact", limit=8
        )
        assert 0.0 <= rate <= 1.0

    def test_strided_first_layer_shapes_agree_across_modes(self):
        first = Conv2D(1, 2, 3, stride=2, padding=1, activation=Sign())
        hybrid = HybridStochasticBinaryNetwork(Sequential([first]), engine=new_sc_engine(4))
        images = np.random.default_rng(0).random((2, 8, 8))
        for evaluate in (
            hybrid.first_layer_binary,
            hybrid.first_layer_bitexact,
            hybrid.first_layer_emulated,
        ):
            assert evaluate(images).shape == (2, 2, 4, 4)

    @pytest.mark.parametrize("limit", [-2, 0, 1.5, True])
    def test_limit_must_be_a_positive_integer(self, limit):
        model = quantize_and_freeze(build_lenet5_small(filters1=2, image_size=8), precision=4)
        hybrid = HybridStochasticBinaryNetwork(model, engine=new_sc_engine(4))
        images, labels = np.zeros((3, 8, 8)), np.zeros(3, dtype=np.int64)
        with pytest.raises(ValueError, match="limit"):
            hybrid.misclassification_rate(images, labels, mode="binary", limit=limit)
        assert hybrid.misclassification_rate(images, labels, mode="binary", limit=2) >= 0.0

    @staticmethod
    def _untrained_hybrid(monkeypatch):
        """A 28x28 hybrid whose ``forward`` fails the test if it runs."""
        model = quantize_and_freeze(build_lenet5_small(filters1=2), precision=4)
        hybrid = HybridStochasticBinaryNetwork(model, engine=new_sc_engine(4))
        monkeypatch.setattr(hybrid, "forward", lambda *a, **k: pytest.fail("forward ran"))
        return hybrid

    @pytest.mark.parametrize("batch_size", [0, -1, 2.5, True])
    def test_batch_size_must_be_a_positive_integer(self, batch_size, monkeypatch):
        hybrid = self._untrained_hybrid(monkeypatch)
        images, labels = np.zeros((3, 28, 28)), np.zeros(3, dtype=np.int64)
        with pytest.raises(ValueError, match="batch_size"):
            hybrid.predict_classes(images, mode="emulate", batch_size=batch_size)
        with pytest.raises(ValueError, match="batch_size"):
            hybrid.misclassification_rate(images, labels, mode="binary", batch_size=batch_size)
        monkeypatch.undo()
        predictions = hybrid.predict_classes(images, mode="binary", batch_size=np.int64(2))
        assert predictions.shape == (3,)

    @pytest.mark.parametrize("labels, limit", [
        (np.array([2]), None),  # would broadcast against every prediction
        (np.zeros((5, 1), dtype=np.int64), None),  # would broadcast to 5x5
        (np.zeros(3, dtype=np.int64), None),
        (np.zeros(2, dtype=np.int64), 3),
        (np.array(2), None),
    ])
    def test_bad_labels_rejected_before_any_forward_pass(self, labels, limit, monkeypatch):
        hybrid = self._untrained_hybrid(monkeypatch)
        with pytest.raises(ValueError, match="labels"):
            hybrid.misclassification_rate(
                np.zeros((5, 28, 28)), labels, mode="binary", limit=limit
            )

    @pytest.mark.parametrize("mode", ["binary", "bitexact", "emulate"])
    def test_empty_batch_rejected_before_any_forward_pass(self, mode, monkeypatch):
        hybrid = self._untrained_hybrid(monkeypatch)
        with pytest.raises(ValueError, match="images must hold at least one image"):
            hybrid.predict_classes(np.zeros((0, 28, 28)), mode=mode)

    def test_forward_rejects_an_empty_batch_and_stays_usable(self):
        # An empty batch must fail before any first-layer work: emulate mode
        # would otherwise calibrate on zero windows and cache a NaN model.
        model = quantize_and_freeze(build_lenet5_small(filters1=2), precision=4)
        hybrid = HybridStochasticBinaryNetwork(model, engine=new_sc_engine(4))
        for mode in ("binary", "bitexact", "emulate"):
            with pytest.raises(ValueError, match="images must hold at least one image"):
                hybrid.forward(np.zeros((0, 28, 28)), mode=mode)
        logits = hybrid.forward(np.full((2, 28, 28), 0.5), mode="emulate")
        assert logits.shape == (2, 10) and np.all(np.isfinite(logits))

    @pytest.mark.parametrize("images", ["2d", "4d", "nan", "out_of_range"])
    @pytest.mark.parametrize("mode", ["binary", "bitexact", "emulate"])
    def test_bad_images_rejected_before_any_first_layer_work(self, mode, images, monkeypatch):
        shape = r"must be a finite \(batch, H, W\) array"
        images, message = {
            "2d": (np.zeros((28, 28)), shape),
            "4d": (np.zeros((1, 1, 28, 28)), shape),
            "nan": (np.where(np.arange(2 * 28 * 28).reshape(2, 28, 28) == 900, np.nan, 0.5), shape),
            # The binary first layer reads no sensor front end: every mode
            # must still reject what SensorFrontEnd.acquire rejects.
            "out_of_range": (np.full((2, 28, 28), 1.5), r"pixel values must lie in \[0, 1\]"),
        }[images]
        model = quantize_and_freeze(build_lenet5_small(filters1=2), precision=4)
        hybrid = HybridStochasticBinaryNetwork(model, engine=new_sc_engine(4))
        for name in ("first_layer_binary", "first_layer_bitexact", "first_layer_emulated"):
            monkeypatch.setattr(hybrid, name, lambda *a, **k: pytest.fail("first layer ran"))
        labels = np.zeros(len(images), dtype=np.int64)
        for run in (
            lambda: hybrid.forward(images, mode=mode),
            lambda: hybrid.predict_classes(images, mode=mode),
            lambda: hybrid.misclassification_rate(images, labels, mode=mode),
        ):
            with pytest.raises(ValueError, match=message):
                run()

    def test_unknown_mode_rejected(self, trained_hybrid_setup):
        data, frozen = trained_hybrid_setup
        hybrid = HybridStochasticBinaryNetwork(frozen, engine=new_sc_engine(6))
        with pytest.raises(ValueError):
            hybrid.forward(data.x_test[:2], mode="quantum")

    def test_new_design_beats_old_design(self, trained_hybrid_setup):
        data, frozen = trained_hybrid_setup
        x_test, y_test = data.x_test, data.y_test
        new_hybrid = HybridStochasticBinaryNetwork(
            frozen, engine=new_sc_engine(4), soft_threshold=0.02, seed=2
        )
        old_hybrid = HybridStochasticBinaryNetwork(
            frozen, engine=old_sc_engine(4), soft_threshold=0.02, seed=2
        )
        new_rate = new_hybrid.misclassification_rate(x_test, y_test, mode="emulate")
        old_rate = old_hybrid.misclassification_rate(x_test, y_test, mode="emulate")
        assert new_rate <= old_rate + 0.02
