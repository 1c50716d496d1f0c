import json

import numpy as np
import pytest

from mgnet.autodiff import value
from mgnet.mgnet_model import (MgNetConfig, classify, count_params, f_in,
                               init_weights, mgnet_forward, parameter_shapes,
                               run_smoothing_sweep, v_mgnet_forward)
from mgnet.tensor_core import ContractViolation, ConvKernel, PaddingMode, conv2d, relu


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
        x = rng.random((9, 9, 1))
        _, trace = mgnet_forward(x, cfg, w)
        for level in trace.u_iterates:
            for u in level:
                assert (np.asarray(value(u)) == 0).all()
        f_l = trace.f_levels[0]
        for l in (1, 2):
            f_next = conv2d(np.asarray(value(f_l)), w.kernel(f"level{l}/restrict"), 2,
                            PaddingMode.ZERO)
            np.testing.assert_array_equal(np.asarray(value(trace.f_levels[l])), f_next)
            f_l = f_next

    def test_spatial_walk_matches_halving(self, rng):
        cfg = MgNetConfig(J=5, nu=(2, 2, 2, 2, 2), c_u=4, c_f=4, pi_variant="pi1",
                          use_batchnorm=False, in_channels=3, classes=10)
        w = init_weights(cfg, seed=0)
        _, trace = mgnet_forward(rng.random((32, 32, 3)), cfg, w)
        walk = [np.asarray(value(f)).shape[:2] for f in trace.f_levels]
        assert walk == [(32, 32), (16, 16), (8, 8), (4, 4), (2, 2)]

    @pytest.mark.parametrize("pi_variant", ["pi0", "pi1", "pi2"])
    def test_transfer_formulas_recomputable_from_trace(self, rng, pi_variant):
        # the interpolation choice only enters through the two displayed
        # transfer formulas; recompute both from the recorded iterates
        cfg = small_config(J=3, nu=(2, 2, 1), pi_variant=pi_variant)
        w = init_weights(cfg, seed=3)
        x = rng.random((9, 9, 1))
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
                    grouped = ConvKernel.from_matrix(plain.weights[:, :, 0, 0], cfg.c_u)
                    grouped.bias[:] = plain.bias[0]
                    plain = grouped
                expected_u0 = conv2d(u_l, plain, 2, PaddingMode.ZERO)
            np.testing.assert_allclose(u_next0, expected_u0, atol=1e-13)

            f_l = np.asarray(value(trace.f_levels[l - 1]))
            residual = f_l - conv2d(u_l, w.data_map_kernel(l), 1, PaddingMode.ZERO)
            expected_f = (conv2d(residual, w.kernel(f"level{l}/restrict"), 2,
                                 PaddingMode.ZERO)
                          + conv2d(u_next0, w.data_map_kernel(l + 1), 1,
                                   PaddingMode.ZERO))
            np.testing.assert_allclose(np.asarray(value(trace.f_levels[l])),
                                       expected_f, atol=1e-12)

    def test_input_scaling_homogeneity(self, rng):
        cfg = small_config()
        w = init_weights(cfg, seed=1)  # biases are zero at init
        x = rng.standard_normal((8, 8, 1))
        theta0 = w.kernel("theta0")
        lam = 3.7
        np.testing.assert_allclose(f_in(lam * x, "conv_relu", theta0),
                                   lam * f_in(x, "conv_relu", theta0),
                                   rtol=1e-12, atol=1e-12)

    def test_grid_mismatch_names_level(self, rng):
        cfg = small_config()
        w = init_weights(cfg, seed=0)

        class BadOps:
            def zero_features(self, f1):
                return np.zeros((5, 5, cfg.c_u))  # wrong grid on purpose

            def data_needed(self, level):
                return True

        with pytest.raises(ContractViolation, match="level 1"):
            run_smoothing_sweep(rng.random((8, 8, cfg.c_f)), cfg.nu, BadOps())


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
        x = rng.standard_normal((9, 9, 1))
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
        x = rng.standard_normal((9, 9, 1))
        _, ts = mgnet_forward(x, cfg_s, w_s)
        _, tc = mgnet_forward(x, cfg_c, w_c)
        for ls, lc in zip(ts.u_iterates, tc.u_iterates):
            for us, uc in zip(ls, lc):
                assert np.asarray(value(us)).tobytes() == np.asarray(value(uc)).tobytes()

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

            def data_needed(self, level):
                return True

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
        u, _ = mgnet_forward(rng.random((8, 8, 1)), cfg, w)
        probs = classify(u, w)
        assert probs.shape == (3,)
        assert abs(probs.sum() - 1.0) < 1e-12
        assert (probs >= 0).all()

    def test_zero_features_give_uniform(self):
        cfg = small_config()
        w = init_weights(cfg, seed=0)
        probs = classify(np.zeros((4, 4, cfg.c_u)), w)
        np.testing.assert_allclose(probs, np.full(3, 1 / 3), atol=1e-12)

    def test_batch_rows_match_single_images(self, rng):
        cfg = small_config()
        w = init_weights(cfg, seed=0)
        feats = rng.standard_normal((5, 4, 4, cfg.c_u))
        probs = classify(feats, w)
        assert probs.shape == (5, 3)
        np.testing.assert_allclose(probs.sum(axis=1), np.ones(5), atol=1e-12)
        for b in range(5):
            assert probs[b].tobytes() == classify(feats[b], w).tobytes()

    def test_f_in_variants(self, rng):
        x = rng.random((8, 8, 1))  # non-negative
        ident = ConvKernel.identity(1)
        np.testing.assert_array_equal(f_in(x, "conv_relu", ident), x)
        pooled = f_in(x, "conv_relu_maxpool", ident)
        assert np.asarray(value(pooled)).shape == (4, 4, 1)
        neg = -np.abs(rng.standard_normal((5, 5, 1)))
        assert (np.asarray(f_in(neg, "conv_relu", ident)) == 0).all()

    def test_head_site_produces_vector(self, rng):
        cfg = MgNetConfig(J=3, nu=(1, 1, 0), c_u=4, c_f=4, pi_variant="pi1",
                          use_batchnorm=False, in_channels=1, classes=2)
        w = init_weights(cfg, seed=0)
        u, trace = mgnet_forward(rng.random((9, 9, 1)), cfg, w)
        assert np.asarray(value(u)).shape == (4,)
        # the average sits over the level-(J-1) final features
        np.testing.assert_allclose(
            np.asarray(value(u)),
            np.asarray(value(trace.u_iterates[1][-1])).mean(axis=(0, 1)), atol=1e-13)


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


class TestVMgNet:
    def test_zero_correction_returns_down_sweep(self, rng):
        cfg = small_config(J=2, nu=(1, 1), c_u=3, c_f=3)
        w = init_weights(cfg, seed=5, nu_up=(0, 0))
        x = rng.standard_normal((9, 9, 1))
        _, trace = mgnet_forward(x, cfg, w)
        out = v_mgnet_forward(x, cfg, w, (0, 0), prolong="zero")
        np.testing.assert_array_equal(np.asarray(value(out)),
                                      np.asarray(value(trace.u_iterates[0][-1])))

    def test_zero_weights_give_zero_output(self, rng):
        cfg = small_config(J=2, nu=(1, 1), c_u=3, c_f=3)
        w = init_weights(cfg, seed=5, nu_up=(1, 0))
        for p in w.params.values():
            p.data = np.zeros_like(p.data)
        out = v_mgnet_forward(rng.standard_normal((9, 9, 1)), cfg, w, (1, 0))
        assert (np.asarray(value(out)) == 0).all()

    def test_matches_hand_unrolled_reference(self, rng):
        cfg = small_config(J=2, nu=(1, 1), c_u=3, c_f=3)
        w = init_weights(cfg, seed=9, nu_up=(1, 0))
        for name, p in w.params.items():
            if name.endswith("/bias"):
                p.data = 0.2 * rng.standard_normal(p.data.shape)
        x = rng.standard_normal((9, 9, 1))
        out = v_mgnet_forward(x, cfg, w, (1, 0), prolong="bilinear")

        # unrolled transcription with plain operations
        from mgnet.grid_transfer import ProlongationMode, prolongate
        c = lambda t, kern, s=1: conv2d(np.asarray(t), kern, s, PaddingMode.ZERO)
        f1 = relu(c(x, w.kernel("theta0")))
        u10 = np.zeros((9, 9, 3))
        b = lambda kern, r: relu(c(relu(r), kern))
        u11 = u10 + b(w.kernel("level1/extract1"), f1 - c(u10, w.kernel("level1/data_map")))
        u20 = c(u11, w.kernel("level1/pi"), 2)
        f2 = (c(f1 - c(u11, w.kernel("level1/data_map")), w.kernel("level1/restrict"), 2)
              + c(u20, w.kernel("level2/data_map")))
        u21 = u20 + b(w.kernel("level2/extract1"), f2 - c(u20, w.kernel("level2/data_map")))
        u_corr = u11 + prolongate(u21 - u20, ProlongationMode.BILINEAR)
        u_final = u_corr + b(w.kernel("level1/up_extract1"),
                             f1 - c(u_corr, w.kernel("level1/data_map")))
        np.testing.assert_allclose(np.asarray(value(out)), u_final, atol=1e-12)

    def test_wrong_nu_up_length(self, rng):
        cfg = small_config(J=2, nu=(1, 1))
        w = init_weights(cfg, seed=0, nu_up=(1, 0))
        with pytest.raises(ContractViolation):
            v_mgnet_forward(rng.standard_normal((9, 9, 1)), cfg, w, (1,))


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
