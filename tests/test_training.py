import numpy as np
import pytest

from mgnet.autodiff import Parameter
from mgnet.data_io import gen_synthetic
from mgnet.mgnet_model import MgNetConfig, init_weights
from mgnet.tensor_core import ContractViolation
from mgnet.training import (TrainConfig, evaluate, finite_diff_check,
                            sgd_momentum_step, train)


class TestSgdMomentum:
    def test_zero_momentum_is_plain_sgd(self):
        p = {"w": Parameter("w", np.array([1.0, 2.0]))}
        g = {"w": np.array([0.5, -0.5])}
        sgd_momentum_step(p, g, {}, lr=0.1, momentum=0.0)
        np.testing.assert_array_equal(p["w"].data, [1.0 - 0.05, 2.0 + 0.05])

    def test_momentum_recurrence_values(self):
        p = {"w": Parameter("w", np.array([0.0]))}
        velocity = {}
        seen = []
        for _ in range(3):
            sgd_momentum_step(p, {"w": np.array([1.0])}, velocity, 0.1, 0.9)
            seen.append(float(velocity["w"][0]))
        np.testing.assert_allclose(seen, [-0.1, -0.19, -0.271], atol=1e-15)

    def test_zero_gradient_keeps_weights_frozen(self):
        p = {"w": Parameter("w", np.array([3.0]))}
        velocity = {}
        for _ in range(5):
            sgd_momentum_step(p, {"w": np.array([0.0])}, velocity, 0.1, 0.9)
        assert p["w"].data[0] == 3.0


class TestSchedule:
    def test_staircase(self):
        cfg = TrainConfig(learning_rate=0.1, lr_decay=0.1, lr_decay_every=30, epochs=90)
        assert cfg.lr_at(1) == 0.1
        assert cfg.lr_at(30) == 0.1
        assert abs(cfg.lr_at(31) - 0.01) < 1e-15
        assert abs(cfg.lr_at(61) - 0.001) < 1e-16

    def test_validation(self):
        with pytest.raises(ContractViolation):
            TrainConfig(learning_rate=0.0)
        with pytest.raises(ContractViolation):
            TrainConfig(momentum=1.0)
        with pytest.raises(ContractViolation):
            TrainConfig(batch_size=0)

    def test_epochs_must_be_positive(self):
        TrainConfig(epochs=1)
        with pytest.raises(ContractViolation, match="epochs"):
            TrainConfig(epochs=0)

    def test_decay_period_must_be_positive(self):
        TrainConfig(lr_decay_every=1)
        with pytest.raises(ContractViolation, match="lr_decay_every"):
            TrainConfig(lr_decay_every=0)


def toy_config(classes=2):
    return MgNetConfig(J=2, nu=(1, 1), c_u=4, c_f=4, pi_variant="pi1",
                       use_batchnorm=True, in_channels=1, classes=classes)


class TestTrainLoop:
    def test_empty_dataset_rejected(self):
        with pytest.raises(ContractViolation):
            train(toy_config(), TrainConfig(epochs=1), [])

    def test_initial_loss_near_log_classes(self):
        cfg = toy_config(classes=10)
        weights = init_weights(cfg, seed=0)
        data = gen_synthetic(10, 12, size=12, seed=4)
        loss, _ = evaluate(cfg, weights, data)
        assert abs(loss - np.log(10)) < 0.1

    def test_loss_decreases_and_is_deterministic(self):
        data = gen_synthetic(2, 50, size=12, seed=2)
        tcfg = TrainConfig(learning_rate=0.05, batch_size=25, epochs=4, seed=3)
        first = train(toy_config(), tcfg, data)
        second = train(toy_config(), tcfg, data)
        assert first.history[-1]["loss"] < first.history[0]["loss"]
        for a, b in zip(first.history, second.history):
            assert a == b  # bit-for-bit reproducibility

    def test_eval_dataset_metrics_recorded(self):
        data = gen_synthetic(2, 20, size=12, seed=5)
        held_out = gen_synthetic(2, 10, size=12, seed=6)
        result = train(toy_config(), TrainConfig(epochs=1, batch_size=20, seed=0),
                       data, eval_dataset=held_out)
        assert "test_accuracy" in result.history[0]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_loss_stops_before_the_update(self):
        cfg = MgNetConfig(J=2, nu=(1, 1), c_u=4, c_f=4, in_channels=1, classes=2)
        data = gen_synthetic(2, 16, size=8, seed=0)
        reported = []
        with pytest.raises(FloatingPointError, match=r"epoch 2, step \d+"):
            train(cfg, TrainConfig(learning_rate=1e6, batch_size=8, epochs=4), data,
                  on_epoch=reported.append)
        assert [entry["epoch"] for entry in reported] == [1]

    def test_bn_buffers_move_during_training(self):
        data = gen_synthetic(2, 20, size=12, seed=5)
        result = train(toy_config(), TrainConfig(epochs=1, batch_size=20, seed=0), data)
        moved = [name for name, buf in result.weights.buffers.items()
                 if "running_mean" in name and np.abs(buf).max() > 0]
        assert moved


class TestFiniteDifferenceAudit:
    def test_purely_affine_model_is_exact(self, rng):
        # head-only model with a linear readout: the loss is exactly affine in
        # the parameters, so central differences are correct to the roundoff
        # of the loss values themselves
        from mgnet import autodiff as ad
        from mgnet.autodiff import Tape, backward

        w = Parameter("w", rng.standard_normal((6, 3)))
        b = Parameter("b", np.zeros(3))
        x = rng.standard_normal((4, 6))
        probe = rng.standard_normal((4, 3))

        def build():
            return ad.mean_all(ad.mul(ad.affine(x, w, b), probe))

        def loss_value():
            return float(ad.value(build()))

        with Tape() as tape:
            loss = build()
        grads = backward(tape, loss)
        worst = 0.0
        for p in (w, b):
            it = np.nditer(p.data, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                old = p.data[idx]
                h = 1e-5
                p.data[idx] = old + h
                up = loss_value()
                p.data[idx] = old - h
                down = loss_value()
                p.data[idx] = old
                fd = (up - down) / (2 * h)
                g = grads[p.name][idx]
                worst = max(worst, abs(fd - g) / max(abs(fd), abs(g), 1e-4))
        assert worst < 1e-9

    def test_full_model_without_batchnorm(self, rng):
        cfg = MgNetConfig(J=2, nu=(2, 2), c_u=4, c_f=4, pi_variant="pi1",
                          use_batchnorm=False, in_channels=1, classes=3)
        weights = init_weights(cfg, seed=1)
        images = rng.random((1, 9, 9, 1))
        report = finite_diff_check(cfg, weights, images, [1], seed=1)
        assert report.worst_relative_error < 1e-5
        assert report.entries_checked > 1000

    def test_full_model_with_batchnorm(self, rng):
        cfg = MgNetConfig(J=2, nu=(2, 2), c_u=4, c_f=4, pi_variant="pi1",
                          use_batchnorm=True, in_channels=1, classes=3)
        weights = init_weights(cfg, seed=1)
        images = rng.random((4, 9, 9, 1))
        buffers = {name: b.copy() for name, b in weights.buffers.items()}
        report = finite_diff_check(cfg, weights, images, [0, 1, 2, 0], seed=1)
        assert report.worst_relative_error < 1e-4
        assert buffers.keys() == weights.buffers.keys()
        for name, b in buffers.items():
            assert b.tobytes() == weights.buffers[name].tobytes(), name

    def test_bias_nudges_are_restored(self, rng):
        cfg = MgNetConfig(J=2, nu=(1, 1), c_u=3, c_f=3, pi_variant="pi1",
                          use_batchnorm=False, in_channels=1, classes=2)
        weights = init_weights(cfg, seed=0)
        finite_diff_check(cfg, weights, rng.random((1, 9, 9, 1)), [0], seed=0,
                          max_entries_per_group=2)
        for name, p in weights.params.items():
            if name.endswith("/bias"):
                assert (p.data == 0).all()
