import numpy as np
import pytest

from mgnet.classic_models import (classic_cnn_step, iresnet_block, negated,
                                  resnet_block, resnet_param_count,
                                  resnet_parameter_shapes, sigma_resnet_step)
from mgnet.tensor_core import (ContractViolation, ConvKernel, PaddingMode,
                               conv2d, relu)


def rand_kernel(rng, channels, scale=0.4, cin=None):
    cin = channels if cin is None else cin
    return ConvKernel(scale * rng.standard_normal((3, 3, channels, cin)),
                      scale * rng.standard_normal(channels))


class TestBlocks:
    def test_resnet_zero_branch(self, rng):
        f = rng.standard_normal((6, 6, 3))
        out = resnet_block(f, ConvKernel.zeros(1, 3, 3), rand_kernel(rng, 3))
        np.testing.assert_array_equal(out, relu(f))

    def test_resnet_zero_input_zero_bias(self):
        zero = ConvKernel.zeros(1, 3, 3)
        out = resnet_block(np.zeros((5, 5, 3)), zero, zero)
        assert (out == 0).all()

    def test_resnet_matches_recomposition(self, rng):
        f = rng.standard_normal((6, 6, 3))
        xi, eta = rand_kernel(rng, 3), rand_kernel(rng, 3)
        branch = conv2d(relu(conv2d(f, eta, 1, PaddingMode.ZERO)), xi, 1,
                        PaddingMode.ZERO)
        np.testing.assert_allclose(resnet_block(f, xi, eta), relu(f + branch),
                                   atol=1e-12)

    def test_iresnet_pure_skip(self, rng):
        f = rng.standard_normal((6, 6, 3))  # includes negative entries
        out = iresnet_block(f, ConvKernel.zeros(1, 3, 3), rand_kernel(rng, 3))
        np.testing.assert_array_equal(out, f)

    def test_iresnet_matches_recomposition(self, rng):
        f = rng.standard_normal((6, 6, 3))
        xi, eta = rand_kernel(rng, 3), rand_kernel(rng, 3)
        branch = conv2d(relu(conv2d(relu(f), eta, 1, PaddingMode.ZERO)), xi, 1,
                        PaddingMode.ZERO)
        np.testing.assert_allclose(iresnet_block(f, xi, eta), f + branch, atol=1e-12)

    def test_sigma_zero_branch(self, rng):
        f = rng.standard_normal((6, 6, 3))
        out = sigma_resnet_step(f, ConvKernel.zeros(1, 3, 3), rand_kernel(rng, 3))
        np.testing.assert_array_equal(out, relu(f))

    def test_sigma_matches_recomposition(self, rng):
        f = rng.standard_normal((6, 6, 3))
        xi, eta = rand_kernel(rng, 3), rand_kernel(rng, 3)
        branch = conv2d(relu(conv2d(relu(f), eta, 1, PaddingMode.ZERO)), xi, 1,
                        PaddingMode.ZERO)
        np.testing.assert_allclose(sigma_resnet_step(f, xi, eta), relu(f) - branch,
                                   atol=1e-12)

    def test_skip_sigma_distinguishes_iresnet_from_sigma_form(self, rng):
        f = -np.abs(rng.standard_normal((5, 5, 3))) - 0.1
        zero = ConvKernel.zeros(1, 3, 3)
        eta = rand_kernel(rng, 3)
        np.testing.assert_array_equal(iresnet_block(f, zero, eta), f)
        np.testing.assert_array_equal(sigma_resnet_step(f, zero, eta), np.zeros_like(f))

    def test_nonnegative_agreement_with_zero_branch(self, rng):
        f = np.abs(rng.standard_normal((5, 5, 3)))
        zero = ConvKernel.zeros(1, 3, 3)
        eta = rand_kernel(rng, 3)
        np.testing.assert_array_equal(iresnet_block(f, zero, eta),
                                      sigma_resnet_step(f, zero, eta))

    def test_mg_resnet_shares_xi_across_steps(self, rng):
        f = rng.standard_normal((6, 6, 3))
        xi_level = rand_kernel(rng, 3)
        etas = [rand_kernel(rng, 3) for _ in range(3)]
        chain = f
        for eta in etas:
            chain = sigma_resnet_step(chain, xi_level, eta)
        # the displayed composition with the one level kernel gives the same chain
        check = f
        for eta in etas:
            check = relu(check) - conv2d(relu(conv2d(relu(check), eta, 1, PaddingMode.ZERO)),
                                         xi_level, 1, PaddingMode.ZERO)
        np.testing.assert_array_equal(chain, check)

    def test_negated_kernel_is_affine_negation(self, rng):
        f = rng.standard_normal((6, 6, 3))
        xi = rand_kernel(rng, 3)
        np.testing.assert_allclose(conv2d(f, negated(xi), 1, PaddingMode.ZERO),
                                   -conv2d(f, xi, 1, PaddingMode.ZERO), atol=1e-13)


class TestClassicCnnStep:
    def test_identity_post_activation_on_nonnegative(self, rng):
        f = np.abs(rng.standard_normal((5, 5, 2)))
        out = classic_cnn_step(f, ConvKernel.identity(2), "post")
        np.testing.assert_array_equal(out, f)

    def test_zero_kernel_pre_order_broadcasts_bias(self, rng):
        f = rng.standard_normal((4, 4, 2))
        chi = ConvKernel.zeros(1, 2, 2)
        chi.bias[:] = [0.5, -0.5]
        out = classic_cnn_step(f, chi, "pre")
        np.testing.assert_array_equal(out[:, :, 0], np.full((4, 4), 0.5))
        np.testing.assert_array_equal(out[:, :, 1], np.zeros((4, 4)))

    def test_orders_match_recomposition(self, rng):
        f = rng.standard_normal((5, 5, 2))
        chi = rand_kernel(rng, 2)
        np.testing.assert_allclose(classic_cnn_step(f, chi, "post"),
                                   conv2d(relu(f), chi, 1, PaddingMode.ZERO), atol=1e-13)
        np.testing.assert_allclose(classic_cnn_step(f, chi, "pre"),
                                   relu(conv2d(f, chi, 1, PaddingMode.ZERO)), atol=1e-13)

    def test_unknown_order_raises(self, rng):
        with pytest.raises(ContractViolation):
            classic_cnn_step(rng.standard_normal((4, 4, 2)), ConvKernel.identity(2),
                             "sideways")


class TestResNetLayouts:
    def test_depth18_count_near_published(self):
        n = resnet_param_count(18, 10)
        assert abs(n - 11.2e6) / 11.2e6 < 0.02

    def test_depth34_count_near_published(self):
        n = resnet_param_count(34, 10)
        assert abs(n - 21.3e6) / 21.3e6 < 0.02

    def test_block_structure(self):
        shapes = resnet_parameter_shapes(18, 10)
        assert shapes["stem/weights"] == (7, 7, 64, 3)
        assert shapes["stage2/block1/down/weights"] == (1, 1, 128, 64)
        assert "stage1/block1/down/weights" not in shapes
        assert shapes["head/weights"] == (512, 10)

    def test_head_scales_with_classes(self):
        assert (resnet_param_count(18, 100) - resnet_param_count(18, 10)
                == 512 * 90 + 90)

    def test_unsupported_depth_raises(self):
        with pytest.raises(ContractViolation):
            resnet_parameter_shapes(50, 10)
