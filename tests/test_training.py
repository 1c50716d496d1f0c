import tracemalloc

import numpy as np
import pytest

from mgnet import training
from mgnet.autodiff import Parameter, backward, value
from mgnet.data_io import LabeledImage, gen_synthetic
from mgnet.mgnet_model import KernelOperators, MgNetConfig, init_weights
from mgnet.tensor_core import ContractViolation
from mgnet.training import (TrainConfig, evaluate, finite_diff_check,
                            sgd_momentum_step, train)

from conftest import mean_all, reference_backward, traced_loss


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
        with pytest.raises(ContractViolation, match="dataset is empty"):
            train(toy_config(), TrainConfig(epochs=1), [])
        with pytest.raises(ContractViolation, match="dataset is empty"):
            evaluate(toy_config(), init_weights(toy_config()), [])

    def test_images_with_other_channel_counts_rejected(self):
        cfg = toy_config()
        data = [LabeledImage(np.zeros((8, 8, 3)), 0)]
        with pytest.raises(ContractViolation, match="3 channels .* in_channels=1"):
            train(cfg, TrainConfig(epochs=1), data)
        with pytest.raises(ContractViolation, match="3 channels .* in_channels=1"):
            evaluate(cfg, init_weights(cfg), data)

    def test_labels_outside_the_classes_rejected(self):
        cfg = toy_config(classes=2)
        data = gen_synthetic(3, 2, size=8, seed=0)
        with pytest.raises(ContractViolation, match=r"label 2 is outside \[0, 2\)"):
            evaluate(cfg, init_weights(cfg), data)
        with pytest.raises(ContractViolation, match=r"label 2 is outside \[0, 2\)"):
            train(cfg, TrainConfig(epochs=1), data)

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


class TestConsumingSweepInTraining:
    def test_trained_weights_bitwise_equal_to_the_retaining_sweep(self, monkeypatch):
        cfg = MgNetConfig(J=3, nu=(2, 2, 2), c_u=8, c_f=8, pi_variant="pi1",
                          use_batchnorm=True, in_channels=1, classes=2)
        data = gen_synthetic(2, 12, size=16, seed=1)
        tcfg = TrainConfig(learning_rate=0.05, batch_size=8, epochs=2, seed=0)
        got = train(cfg, tcfg, data)
        monkeypatch.setattr(training, "backward", reference_backward)
        want = train(cfg, tcfg, data)
        assert got.history == want.history
        for name, p in want.weights.params.items():
            assert got.weights.params[name].data.tobytes() == p.data.tobytes(), name
        for name, b in want.weights.buffers.items():
            assert got.weights.buffers[name].tobytes() == b.tobytes(), name

    def test_step_memory_peaks_at_its_forward_graph(self):
        # the CLI's toy model on one batch of 32 16x16 images
        cfg = MgNetConfig(J=3, nu=(2, 2, 2), c_u=16, c_f=16, pi_variant="pi1",
                          use_batchnorm=True, in_channels=1, classes=2)
        weights = init_weights(cfg, seed=0)
        data = gen_synthetic(2, 16, size=16, seed=0)
        images = np.stack([it.image for it in data])
        labels = [it.label for it in data]
        backward(*traced_loss(cfg, weights, images, labels))  # warm-up step
        tracemalloc.start()
        try:
            tape, loss = traced_loss(cfg, weights, images, labels)
            forward_graph = tracemalloc.get_traced_memory()[0]
            backward(tape, loss)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert forward_graph > 10 * 2**20  # the activations of 32 images, tens of MB
        assert peak <= 1.1 * forward_graph, (peak, forward_graph)


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
            return mean_all(ad.mul(ad.affine(x, w, b), probe))

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

    def test_zero_interpolation_model_trains_and_audits(self, rng):
        # under pi0 every level starts from zero features, whose data map is
        # its bias alone; level 2 does no smoothing, so its data map weights
        # meet only zero features and still need their (zero) gradient entry
        cfg = MgNetConfig(J=3, nu=(1, 0, 1), c_u=3, c_f=3, pi_variant="pi0",
                          use_batchnorm=True, in_channels=1, classes=2)
        weights = init_weights(cfg, seed=0)
        data = gen_synthetic(2, 2, size=8, seed=0)
        train(cfg, TrainConfig(epochs=1, batch_size=4, learning_rate=0.05), data,
              weights=weights)
        report = finite_diff_check(cfg, weights, rng.random((2, 8, 8, 1)), [0, 1], seed=0)
        assert report.worst_relative_error < 1e-4
        assert set(report.per_parameter) == set(weights.params)

    def test_batchnorm_buffers_follow_numpy_statistics(self, monkeypatch):
        cfg = MgNetConfig(J=2, nu=(2, 1), c_u=4, c_f=4, pi_variant="pi1",
                          use_batchnorm=True, in_channels=1, classes=2)
        weights = init_weights(cfg, seed=0)
        before = {name: b.copy() for name, b in weights.buffers.items()}
        seen = []
        real = KernelOperators.apply_bn

        def recording(self, site, x):
            seen.append((site, np.array(value(x))))
            return real(self, site, x)
        monkeypatch.setattr(KernelOperators, "apply_bn", recording)
        data = gen_synthetic(2, 3, size=8, seed=1)
        train(cfg, TrainConfig(epochs=1, batch_size=6), data, weights=weights)
        assert {site for site, _ in seen} == {name[:-len("/bn/running_mean")]
                                              for name in before if "mean" in name}
        for site, x in seen:
            axes = (0, 1, 2)
            mean_key, var_key = f"{site}/bn/running_mean", f"{site}/bn/running_var"
            want_mean = 0.9 * before[mean_key] + 0.1 * x.mean(axis=axes)
            want_var = 0.9 * before[var_key] + 0.1 * x.var(axis=axes)
            assert weights.buffers[mean_key].tobytes() == want_mean.tobytes()
            assert weights.buffers[var_key].tobytes() == want_var.tobytes()

    def test_bias_nudges_are_restored(self, rng):
        cfg = MgNetConfig(J=2, nu=(1, 1), c_u=3, c_f=3, pi_variant="pi1",
                          use_batchnorm=False, in_channels=1, classes=2)
        weights = init_weights(cfg, seed=0)
        finite_diff_check(cfg, weights, rng.random((1, 9, 9, 1)), [0], seed=0,
                          max_entries_per_group=2)
        for name, p in weights.params.items():
            if name.endswith("/bias"):
                assert (p.data == 0).all()
