import json

import numpy as np
import pytest

from mgnet import autodiff as ad
from mgnet.autodiff import BN_EPS, Tape, value
from mgnet.data_io import LabeledImage
from mgnet.mgnet_model import (KernelOperators, MgNetConfig, classify, count_params, f_in,
                               init_weights, mgnet_forward, parameter_shapes,
                               run_smoothing_sweep)
from mgnet.tensor_core import ContractViolation, ConvKernel, conv2d, relu, softmax
from mgnet.training import TrainConfig, train

from conftest import CONFIG_CHANGES, from_matrix, identity_kernel, mismatched_model


def no_bn(h):
    return h


def small_config(**overrides):
    base = dict(J=2, nu=(2, 2), c_u=4, c_f=4, pi_variant="pi1",
                use_batchnorm=False, in_channels=1, classes=3,
                smoothing_variant="single")
    base.update(overrides)
    return MgNetConfig(**base)


class TestConfig:
    def test_nu_length_enforced(self):
        with pytest.raises(ContractViolation):
            MgNetConfig(J=3, nu=(2, 2))

    def test_variant_names_enforced(self):
        with pytest.raises(ContractViolation):
            small_config(pi_variant="pi9")
        with pytest.raises(ContractViolation):
            small_config(smoothing_variant="fancy")

    @pytest.mark.parametrize("field,value", [
        ("J", 0), ("c_u", 2.5), ("c_u", float("nan")), ("c_f", float("inf")), ("c_f", True),
        ("in_channels", 0), ("classes", 1), ("classes", -3), ("kernel_half_width", 1.5),
        ("nu", (1.7, 1)), ("nu", (-1, 1)), ("nu", "11"), ("use_batchnorm", "no"),
        ("shared_data_map", 1),
    ])
    def test_field_types_and_ranges_enforced(self, field, value):
        with pytest.raises(ContractViolation, match=field if field != "nu" else "smoothing count"):
            small_config(**{field: value})

    def test_numpy_integers_are_counts(self):
        cfg = small_config(c_u=np.int64(4), nu=(np.int64(2), 2))
        assert cfg.nu == (2, 2) and count_params(cfg) == count_params(small_config())

    def test_json_roundtrip(self, tmp_path):
        cfg = small_config(pi_variant="pi2", use_batchnorm=True)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg.to_dict()))
        assert MgNetConfig.from_json(path) == cfg


class TestForward:
    def test_zero_maps_give_pure_downsampling_chain(self, rng):
        cfg = small_config(J=3, nu=(2, 2, 2))
        w = init_weights(cfg, seed=0)
        for name, p in w.params.items():
            if "data_map" in name or "extract" in name or "/pi/" in name:
                p.data = np.zeros_like(p.data)
        x = rng.random((1, 9, 9, 1))
        _, trace = mgnet_forward(x, cfg, w)
        for level in trace.u_iterates:
            for u in level:
                assert (np.asarray(value(u)) == 0).all()
        f_l = trace.f_levels[0]
        for l in (1, 2):
            f_next = conv2d(np.asarray(value(f_l)), w.kernel(f"level{l}/restrict"), 2)
            np.testing.assert_array_equal(np.asarray(value(trace.f_levels[l])), f_next)
            f_l = f_next

    def test_spatial_walk_matches_halving(self, rng):
        cfg = MgNetConfig(J=5, nu=(2, 2, 2, 2, 2), c_u=4, c_f=4, pi_variant="pi1",
                          use_batchnorm=False, in_channels=3, classes=10)
        w = init_weights(cfg, seed=0)
        _, trace = mgnet_forward(rng.random((1, 32, 32, 3)), cfg, w)
        walk = [np.asarray(value(f)).shape[1:3] for f in trace.f_levels]
        assert walk == [(32, 32), (16, 16), (8, 8), (4, 4), (2, 2)]

    @pytest.mark.parametrize("pi_variant", ["pi0", "pi1", "pi2"])
    def test_transfer_formulas_recomputable_from_trace(self, rng, pi_variant):
        # the interpolation choice only enters through the two displayed
        # transfer formulas; recompute both from the recorded iterates
        cfg = small_config(J=3, nu=(2, 2, 1), pi_variant=pi_variant)
        w = init_weights(cfg, seed=3)
        x = rng.random((1, 9, 9, 1))
        _, trace = mgnet_forward(x, cfg, w)
        for l in (1, 2):
            u_l = np.asarray(value(trace.u_iterates[l - 1][-1]))
            u_next0 = np.asarray(value(trace.u_iterates[l][0]))
            if pi_variant == "pi0":
                expected_u0 = np.zeros_like(u_next0)
            else:
                raw = w.kernel(f"level{l}/pi")
                plain = ConvKernel(np.asarray(raw.weights), np.asarray(raw.bias))
                if pi_variant == "pi2":
                    # one single-channel stencil applied to every channel
                    grouped = from_matrix(plain.weights[:, :, 0, 0], cfg.c_u)
                    grouped.bias[:] = plain.bias[0]
                    plain = grouped
                expected_u0 = conv2d(u_l, plain, 2)
            np.testing.assert_allclose(u_next0, expected_u0, atol=1e-13)

            f_l = np.asarray(value(trace.f_levels[l - 1]))
            residual = f_l - conv2d(u_l, w.data_map_kernel(l), 1)
            expected_f = (conv2d(residual, w.kernel(f"level{l}/restrict"), 2)
                          + conv2d(u_next0, w.data_map_kernel(l + 1), 1))
            np.testing.assert_allclose(np.asarray(value(trace.f_levels[l])),
                                       expected_f, atol=1e-12)

    def test_input_scaling_homogeneity(self, rng):
        cfg = small_config()
        w = init_weights(cfg, seed=1)  # biases are zero at init
        x = rng.standard_normal((1, 8, 8, 1))
        theta0 = w.kernel("theta0")
        lam = 3.7
        np.testing.assert_allclose(f_in(lam * x, "conv_relu", theta0, no_bn),
                                   lam * f_in(x, "conv_relu", theta0, no_bn),
                                   rtol=1e-12, atol=1e-12)

    def test_grid_mismatch_names_level(self, rng):
        cfg = small_config()
        w = init_weights(cfg, seed=0)

        class BadOps:
            def zero_features(self, f1):
                return np.zeros((1, 5, 5, cfg.c_u))  # wrong grid on purpose

            def data_map(self, level, u):
                return np.zeros(np.shape(u)[:-1] + (cfg.c_f,))

        with pytest.raises(ContractViolation, match="level 1"):
            run_smoothing_sweep(rng.random((1, 8, 8, cfg.c_f)), cfg.nu, BadOps())

    def test_empty_batch_rejected_before_batchnorm_buffers_move(self):
        # an empty batch's mean and variance are NaN; the first conv must refuse it
        cfg = small_config(use_batchnorm=True)
        w = init_weights(cfg, seed=0)
        before = {name: buf.tobytes() for name, buf in w.buffers.items()}
        assert before
        with pytest.raises(ContractViolation, match="empty"):
            mgnet_forward(np.zeros((0, 8, 8, 1)), cfg, w, training=True)
        assert {name: buf.tobytes() for name, buf in w.buffers.items()} == before

    @pytest.mark.parametrize("change", CONFIG_CHANGES.values(), ids=CONFIG_CHANGES)
    @pytest.mark.parametrize("training", [False, True])
    def test_config_other_than_the_weights_rejected(self, rng, change, training):
        cfg, w = mismatched_model(change)
        with pytest.raises(ContractViolation, match="does not match the weights'") as err:
            mgnet_forward(rng.random((2, 8, 8, 1)), cfg, w, training=training)
        for k, v in change.items():
            assert f"{k}={v!r} (weights: {getattr(w.cfg, k)!r})" in str(err.value)


class TestVariants:
    def _shared_weights(self, variant, seed=7):
        cfg = small_config(J=2, nu=(3, 2), smoothing_variant=variant)
        w = init_weights(cfg, seed=seed)
        return cfg, w

    def test_multi_step_degenerates_to_single(self, rng):
        cfg_s, w_s = self._shared_weights("single")
        cfg_m, w_m = self._shared_weights("multi")
        for name, p in w_s.params.items():
            if name in w_m.params:
                w_m.params[name].data = p.data.copy()
        for name, p in w_m.params.items():
            if name.endswith("/alpha"):
                data = np.full(p.data.shape, -1e4)
                data[-1] = 0.0  # softmax underflows to an exact one-hot
                p.data = data
        x = rng.standard_normal((1, 9, 9, 1))
        _, ts = mgnet_forward(x, cfg_s, w_s)
        _, tm = mgnet_forward(x, cfg_m, w_m)
        for ls, lm in zip(ts.u_iterates, tm.u_iterates):
            for us, um in zip(ls, lm):
                assert np.asarray(value(us)).tobytes() == np.asarray(value(um)).tobytes()

    def test_chebyshev_with_unit_weight_degenerates_to_single(self, rng):
        cfg_s, w_s = self._shared_weights("single")
        cfg_c, w_c = self._shared_weights("chebyshev")
        for name, p in w_s.params.items():
            if name in w_c.params:
                w_c.params[name].data = p.data.copy()
        for name, p in w_c.params.items():
            if name.endswith("/omega"):
                p.data = np.array(1.0)
        x = rng.standard_normal((1, 9, 9, 1))
        _, ts = mgnet_forward(x, cfg_s, w_s)
        _, tc = mgnet_forward(x, cfg_c, w_c)
        for ls, lc in zip(ts.u_iterates, tc.u_iterates):
            for us, uc in zip(ls, lc):
                assert np.asarray(value(us)).tobytes() == np.asarray(value(uc)).tobytes()

    @pytest.mark.parametrize("strategy", ["constant", "scaled"])
    @pytest.mark.parametrize("variant", ["single", "multi", "chebyshev"])
    def test_shared_extractor_is_variable_with_copied_kernels(self, rng, strategy, variant):
        # one extractor per level, scaled by ones, is the per-step extractors
        # all set to it; a scale then multiplies that step's extraction
        cfg_s = small_config(J=2, nu=(3, 2), smoothing_variant=variant,
                             extractor_strategy=strategy, use_batchnorm=True)
        cfg_v = small_config(J=2, nu=(3, 2), smoothing_variant=variant,
                             extractor_strategy="variable", use_batchnorm=True)
        w_s, w_v = init_weights(cfg_s, seed=3), init_weights(cfg_v, seed=3)
        if strategy == "scaled":
            assert all((w_s.params[f"level{l}/scale"].data == 1).all() for l in (1, 2))
        for name, p in w_v.params.items():
            shared = name
            for l, n_l in ((1, 3), (2, 2)):
                for i in range(1, n_l + 1):
                    shared = shared.replace(f"level{l}/extract{i}/", f"level{l}/extract/")
            p.data = w_s.params[shared].data.copy()
        x = rng.standard_normal((2, 9, 9, 1))
        for training in (False, True):
            z_s, t_s = mgnet_forward(x, cfg_s, w_s, training=training)
            z_v, _ = mgnet_forward(x, cfg_v, w_v, training=training)
            assert np.isfinite(value(z_s)).all()
            assert value(z_s).tobytes() == value(z_v).tobytes()
        if strategy == "scaled":
            w_s.params["level1/scale"].data = np.array([1.0, 0.5, 2.0])
            _, t_scaled = mgnet_forward(x, cfg_s, w_s, training=True)
            u_s, u_scaled = t_s.u_iterates[0], t_scaled.u_iterates[0]
            assert value(u_scaled[1]).tobytes() == value(u_s[1]).tobytes()
            assert not np.array_equal(value(u_scaled[2]), value(u_s[2]))

    def test_multi_step_residual_recursion_with_linear_maps(self, rng):
        # r^i = sum_j alpha_j (I - A B) r^j when both maps are linear
        m = 6
        a_mat = rng.standard_normal((m, m)) * 0.4 + np.eye(m)
        b_mat = rng.standard_normal((m, m)) * 0.2
        alphas = {i: rng.random(i) + 0.1 for i in range(1, 4)}
        for i in alphas:
            alphas[i] /= alphas[i].sum()

        class LinearOps:
            def zero_features(self, f1):
                return np.zeros(m)

            def data_map(self, level, u):
                return a_mat @ u

            def extract(self, level, i, r):
                return b_mat @ r

            def alpha(self, level, i):
                return alphas[i]

        f = rng.standard_normal(m)
        _, trace = run_smoothing_sweep(f, [3], LinearOps(), "multi")
        iterates = trace.u_iterates[0]
        residuals = [f - a_mat @ u for u in iterates]
        for i in range(1, 4):
            want = sum(alphas[i][j] * (np.eye(m) - a_mat @ b_mat) @ residuals[j]
                       for j in range(i))
            np.testing.assert_allclose(residuals[i], want, atol=1e-12)


class TestHeadAndInit:
    def test_classifier_probabilities(self, rng):
        cfg = small_config()
        w = init_weights(cfg, seed=0)
        u, _ = mgnet_forward(rng.random((1, 8, 8, 1)), cfg, w)
        probs = classify(u, w)
        assert probs.shape == (1, 3)
        assert abs(probs.sum() - 1.0) < 1e-12
        assert (probs >= 0).all()

    def test_zero_features_give_uniform(self):
        cfg = small_config()
        w = init_weights(cfg, seed=0)
        probs = classify(np.zeros((1, 4, 4, cfg.c_u)), w)
        np.testing.assert_allclose(probs, np.full((1, 3), 1 / 3), atol=1e-12)

    def test_batch_rows_match_single_images(self, rng):
        cfg = small_config()
        w = init_weights(cfg, seed=0)
        feats = rng.standard_normal((5, 4, 4, cfg.c_u))
        probs = classify(feats, w)
        assert probs.shape == (5, 3)
        np.testing.assert_allclose(probs.sum(axis=1), np.ones(5), atol=1e-12)
        for b in range(5):
            assert probs[b].tobytes() == classify(feats[b:b + 1], w)[0].tobytes()

    def test_f_in_variants(self, rng):
        x = rng.random((1, 8, 8, 1))  # non-negative
        ident = identity_kernel(1)
        np.testing.assert_array_equal(f_in(x, "conv_relu", ident, no_bn), x)
        pooled = f_in(x, "conv_relu_maxpool", ident, no_bn)
        assert np.asarray(value(pooled)).shape == (1, 4, 4, 1)
        neg = -np.abs(rng.standard_normal((1, 5, 5, 1)))
        assert (np.asarray(f_in(neg, "conv_relu", ident, no_bn)) == 0).all()

    def test_head_site_produces_vector(self, rng):
        cfg = MgNetConfig(J=3, nu=(1, 1, 0), c_u=4, c_f=4, pi_variant="pi1",
                          use_batchnorm=False, in_channels=1, classes=2)
        w = init_weights(cfg, seed=0)
        u, trace = mgnet_forward(rng.random((1, 9, 9, 1)), cfg, w)
        assert np.asarray(value(u)).shape == (1, 4)
        # the average sits over the level-(J-1) final features
        np.testing.assert_allclose(
            np.asarray(value(u)),
            np.asarray(value(trace.u_iterates[1][-1])).mean(axis=(1, 2)), atol=1e-13)


class TestParameterCounting:
    def test_head_only_arithmetic(self):
        shapes = parameter_shapes(small_config(c_u=256, classes=10))
        head = int(np.prod(shapes["head/weights"])) + int(np.prod(shapes["head/bias"]))
        assert head == 2570

    def test_constant_strategy_shares_kernels(self):
        cfg = small_config(J=2, nu=(3, 2), extractor_strategy="constant")
        names = parameter_shapes(cfg)
        assert "level1/extract/weights" in names
        assert "level1/extract1/weights" not in names
        cfg_var = small_config(J=2, nu=(3, 2), extractor_strategy="variable")
        names_var = parameter_shapes(cfg_var)
        assert "level1/extract3/weights" in names_var

    def test_scaled_strategy_adds_per_step_scalars(self):
        cfg = small_config(J=2, nu=(3, 2), extractor_strategy="scaled")
        names = parameter_shapes(cfg)
        assert names["level1/scale"] == (3,)
        base = count_params(small_config(J=2, nu=(3, 2), extractor_strategy="constant"))
        assert count_params(cfg) == base + 5

    def test_shared_data_map_uses_one_kernel(self):
        shared = parameter_shapes(small_config(shared_data_map=True))
        assert "shared/data_map/weights" in shared
        assert all("level1/data_map" not in k for k in shared)

    def test_count_matches_materialized_weights(self):
        cfg = small_config(J=3, nu=(2, 2, 0), use_batchnorm=True, pi_variant="pi2")
        w = init_weights(cfg, seed=0)
        assert count_params(cfg) == sum(p.data.size for p in w.params.values())


class TestStateDict:
    def test_roundtrip_bitwise(self, rng):
        cfg = small_config(use_batchnorm=True)
        w = init_weights(cfg, seed=0)
        state = w.state_dict()
        w2 = init_weights(cfg, seed=99)
        w2.load_state_dict(state)
        for name, p in w.params.items():
            assert p.data.tobytes() == w2.params[name].data.tobytes()
        for name, buf in w.buffers.items():
            assert buf.tobytes() == w2.buffers[name].tobytes()

    def test_shape_mismatch_raises(self):
        cfg = small_config()
        w = init_weights(cfg, seed=0)
        state = w.state_dict()
        state["head/weights"] = np.zeros((2, 2))
        with pytest.raises(ContractViolation):
            w.load_state_dict(state)

    def test_missing_parameter_raises(self):
        cfg = small_config()
        w = init_weights(cfg, seed=0)
        state = w.state_dict()
        del state["head/bias"]
        with pytest.raises(ContractViolation):
            w.load_state_dict(state)

    def test_state_must_name_exactly_the_parameters_and_buffers(self):
        cfg = small_config(use_batchnorm=True)
        w = init_weights(cfg, seed=0)
        target = init_weights(cfg, seed=99)
        before = target.state_dict()
        buffers = [name for name in w.buffers]
        assert buffers
        without_buffers = {n: a for n, a in w.state_dict().items() if n not in buffers}
        with pytest.raises(ContractViolation, match="missing") as info:
            target.load_state_dict(without_buffers)
        assert all(name in str(info.value) for name in buffers)
        with pytest.raises(ContractViolation, match="extra .*'bogus'"):
            target.load_state_dict({**w.state_dict(), "bogus": np.zeros(1)})
        bad_buffer = {**w.state_dict(), buffers[0]: np.zeros(7)}
        with pytest.raises(ContractViolation, match="shape"):
            target.load_state_dict(bad_buffer)
        for name, arr in target.state_dict().items():  # a refused load changes nothing
            assert arr.tobytes() == before[name].tobytes(), name


def old_order_forward(x, cfg, w, training=False):
    """The sweep unrolled by hand in its textbook order, on plain arrays.

    Every residual convolves its iterate afresh: the zero start, A^{l+1} u^{l+1,0}
    once inside f^{l+1} and again in the first step, and the last iterate again
    for the restriction.  Returns (final features, f levels, iterates).
    """
    def param(name):
        return np.asarray(w.params[name].data)

    def conv(u, prefix, stride=1, weights=None, bias=None):
        kern = ConvKernel(param(f"{prefix}/weights") if weights is None else weights,
                          param(f"{prefix}/bias") if bias is None else bias)
        return conv2d(u, kern, stride)

    def bn(site, h):
        if not cfg.use_batchnorm:
            return h
        gamma, beta = param(f"{site}/bn/gamma"), param(f"{site}/bn/beta")
        if training:
            axes = tuple(range(h.ndim - 1))
            inv = 1.0 / np.sqrt(h.var(axis=axes) + BN_EPS)
            return gamma * ((h - h.mean(axis=axes)) * inv) + beta
        inv = 1.0 / np.sqrt(w.buffers[f"{site}/bn/running_var"] + BN_EPS)
        return (h - w.buffers[f"{site}/bn/running_mean"]) * (gamma * inv) + beta

    def data_map(l, u):
        return conv(u, "shared/data_map" if cfg.shared_data_map else f"level{l}/data_map")

    def extract(l, i, r):
        site = f"level{l}/extract{i}"
        return relu(bn(site, conv(relu(r), site)))

    def transfer(l, u):
        if cfg.pi_variant == "pi0":
            return np.zeros(u.shape[:-3] + (-(-u.shape[-3] // 2), -(-u.shape[-2] // 2),
                                            u.shape[-1]))
        if cfg.pi_variant == "pi1":
            return conv(u, f"level{l}/pi", 2)
        eye = np.zeros((1, 1, cfg.c_u, cfg.c_u))
        eye[0, 0, np.arange(cfg.c_u), np.arange(cfg.c_u)] = 1.0
        return conv(u, f"level{l}/pi", 2, param(f"level{l}/pi/weights") * eye,
                    param(f"level{l}/pi/bias") * np.ones(cfg.c_u))

    f_l = relu(bn("theta0", conv(x, "theta0")))
    u = np.zeros(f_l.shape[:-1] + (cfg.c_u,))
    f_levels, iterates = [], []
    for l in range(1, cfg.J + 1):
        history = [u]
        for i in range(1, cfg.nu[l - 1] + 1):
            if cfg.smoothing_variant == "multi":
                alpha = softmax(param(f"level{l}/step{i}/alpha"))
                u = None
                for j, u_j in enumerate(history):
                    term = alpha[j] * (u_j + extract(l, i, f_l - data_map(l, u_j)))
                    u = term if u is None else u + term
            else:
                step = u + extract(l, i, f_l - data_map(l, u))
                if cfg.smoothing_variant == "single" or i == 1:
                    u = step
                else:
                    omega = param(f"level{l}/step{i}/omega")
                    u = omega * step + (1.0 - omega) * history[-2]
            history.append(u)
        f_levels.append(f_l)
        iterates.append(history)
        if l < cfg.J:
            u_next = transfer(l, u)
            f_l = (conv(f_l - data_map(l, u), f"level{l}/restrict", 2)
                   + data_map(l + 1, u_next))
            u = u_next
    return u, f_levels, iterates


def sweep_config(variant, pi_variant, **overrides):
    base = dict(J=3, nu=(3, 2, 2), c_u=4, c_f=5, smoothing_variant=variant,
                pi_variant=pi_variant, use_batchnorm=True, in_channels=2, classes=3)
    base.update(overrides)
    return MgNetConfig(**base)


def perturbed_weights(cfg, rng):
    """Initial weights with nonzero biases, BN shifts and running statistics."""
    w = init_weights(cfg, seed=2)
    for name, p in w.params.items():
        if name.endswith(("/bias", "/beta", "/alpha", "/omega")):
            p.data = p.data + 0.3 * rng.standard_normal(p.data.shape)
    for name, buf in w.buffers.items():
        w.buffers[name] = buf + 0.2 * rng.random(buf.shape)
    return w


class TestSweepMatchesTextbookOrder:
    @pytest.mark.parametrize("training", [False, True], ids=["eval", "train"])
    @pytest.mark.parametrize("pi_variant", ["pi0", "pi1", "pi2"])
    @pytest.mark.parametrize("variant", ["single", "multi", "chebyshev"])
    def test_forward_bitwise(self, rng, variant, pi_variant, training):
        cfg = sweep_config(variant, pi_variant)
        w = perturbed_weights(cfg, rng)
        x = rng.standard_normal((3, 9, 9, 2))
        want_u, want_f, want_iterates = old_order_forward(x, cfg, w, training)
        if training:
            with Tape():
                u, trace = mgnet_forward(x, cfg, w, training=True)
        else:
            u, trace = mgnet_forward(x, cfg, w)
        assert np.asarray(value(u)).tobytes() == want_u.tobytes()
        for got, want in zip(trace.f_levels, want_f, strict=True):
            assert np.asarray(value(got)).tobytes() == want.tobytes()
        for got_level, want_level in zip(trace.u_iterates, want_iterates, strict=True):
            for got, want in zip(got_level, want_level, strict=True):
                assert np.asarray(value(got)).tobytes() == want.tobytes()


def count_conv_work(monkeypatch, cfg, x, labels):
    """(forward, grad-input, grad-weight) convolutions of one training step,
    plus every input the forward convolutions saw."""
    counts = {"_conv_forward": 0, "_conv_grad_input": 0, "_conv_grad_weights": 0}
    seen = []
    for name in counts:
        real = getattr(ad, name)

        def counted(*args, _name=name, _real=real):
            counts[_name] += 1
            if _name == "_conv_forward":
                seen.append(args[0])
            return _real(*args)
        monkeypatch.setattr(ad, name, counted)
    train(cfg, TrainConfig(epochs=1, batch_size=len(labels), learning_rate=0.01),
          [LabeledImage(img, int(lab)) for img, lab in zip(x, labels)])
    return (counts["_conv_forward"], counts["_conv_grad_input"],
            counts["_conv_grad_weights"]), seen


class TestSweepWork:
    @pytest.mark.parametrize("cfg,size,want", [
        # the CLI's default toy model: J=3, nu=(2,2,2), c=16
        (MgNetConfig(J=3, nu=(2, 2, 2), c_u=16, c_f=16, pi_variant="pi1",
                     use_batchnorm=True, in_channels=1, classes=2), 16, (18, 17, 18)),
        # the paper's layout, narrowed: shared data map, averaging head at level 5
        (MgNetConfig(J=5, nu=(2, 2, 2, 2, 0), c_u=4, c_f=4, pi_variant="pi1",
                     use_batchnorm=True, shared_data_map=True, in_channels=3,
                     classes=10), 32, (25, 24, 25)),
    ], ids=["toy", "paper"])
    def test_convolutions_per_training_step(self, monkeypatch, rng, cfg, size, want):
        x = rng.random((2, size, size, cfg.in_channels))
        counts, _ = count_conv_work(monkeypatch, cfg, x, [0, 1])
        assert counts == want

    @pytest.mark.parametrize("pi_variant", ["pi0", "pi1", "pi2"])
    @pytest.mark.parametrize("variant", ["single", "multi", "chebyshev"])
    def test_no_convolution_of_zero_features(self, monkeypatch, rng, variant, pi_variant):
        cfg = sweep_config(variant, pi_variant)
        _, seen = count_conv_work(monkeypatch, cfg, rng.random((2, 9, 9, 2)), [0, 2])
        assert seen and all(np.any(x) for x in seen)

    def test_multi_step_maps_each_iterate_once(self, monkeypatch, rng):
        # nu_l + 1 data maps on each level that restricts (u^{l,0..nu_l}); the
        # last level's final iterate is never mapped
        cfg = sweep_config("multi", "pi1", use_batchnorm=False)
        per_level = {l: 0 for l in range(1, cfg.J + 1)}
        real = KernelOperators.data_map

        def counted(self, level, u):
            per_level[level] += 1
            return real(self, level, u)
        monkeypatch.setattr(KernelOperators, "data_map", counted)
        mgnet_forward(rng.random((1, 9, 9, 2)), cfg, init_weights(cfg, seed=0))
        assert list(per_level.values()) == [4, 3, 2]  # nu = (3, 2, 2)

    @pytest.mark.parametrize("nu", [(2, 3, 1), (2, 1, 0, 0)], ids=["full", "zero_tail"])
    @pytest.mark.parametrize("variant", ["single", "multi", "chebyshev"])
    def test_sweep_needs_only_the_protocol(self, rng, variant, nu):
        # A, B, R, Pi, the start features and the step weights: any other
        # method the sweep asked for would raise AttributeError
        m = 5
        mats = {name: 0.3 * rng.standard_normal((len(nu), m, m)) + np.eye(m)
                for name in ("A", "B", "R", "Pi")}
        alphas = {i: rng.random(i) + 0.1 for i in range(1, 4)}
        mapped = []

        class ProtocolOps:
            def zero_features(self, f1):
                return np.zeros_like(f1)

            def data_map(self, level, u):
                mapped.append(level)
                return mats["A"][level - 1] @ u

            def extract(self, level, i, r):
                return mats["B"][level - 1] @ r

            def restrict(self, level, x):
                return mats["R"][level - 1] @ x

            def transfer(self, level, u):
                return mats["Pi"][level - 1] @ u

            def alpha(self, level, i):
                return alphas[i]

            def omega(self, level, i):
                return 0.5 + 0.1 * i

        f = rng.standard_normal(m)
        u_final, trace = run_smoothing_sweep(f, nu, ProtocolOps(), variant)

        # the same sweep in textbook order: every A u formed where it is read
        def a(l, u):
            return mats["A"][l - 1] @ u

        def step(l, u, f_l):
            return u + mats["B"][l - 1] @ (f_l - a(l, u))

        u, f_l = np.zeros(m), f
        for l, n_l in enumerate(nu, 1):
            history = [u]
            for i in range(1, n_l + 1):
                if variant == "multi":
                    u = sum(alphas[i][j] * step(l, u_j, f_l) for j, u_j in enumerate(history))
                elif variant == "chebyshev" and i > 1:
                    omega = 0.5 + 0.1 * i
                    u = omega * step(l, u, f_l) + (1.0 - omega) * history[-2]
                else:
                    u = step(l, u, f_l)
                history.append(u)
            if f_l is None:
                assert trace.f_levels[l - 1] is None
            else:
                np.testing.assert_allclose(trace.f_levels[l - 1], f_l, atol=1e-12)
            for got, want in zip(trace.u_iterates[l - 1], history, strict=True):
                np.testing.assert_allclose(got, want, atol=1e-12)
            if l < len(nu):
                u_next = mats["Pi"][l - 1] @ u
                f_l = (mats["R"][l - 1] @ (f_l - a(l, u)) + a(l + 1, u_next)
                       if any(nu[l:]) else None)
                u = u_next
        np.testing.assert_allclose(u_final, u, atol=1e-12)
        assert set(mapped) == {l for l in range(1, len(nu) + 1) if any(nu[l - 1:])}
