import numpy as np
import pytest

from mgnet.tensor_core import (ContractViolation, ConvKernel, PaddingMode,
                               conv2d, relu, softmax)
from mgnet.poisson_mg import POISSON_STENCIL

from conftest import reference_conv2d

ALL_MODES = list(PaddingMode)


class TestConv2d:
    def test_identity_kernel_is_identity(self, rng):
        x = rng.standard_normal((5, 5, 1))
        out = conv2d(x, ConvKernel.identity(1), 1, PaddingMode.ZERO)
        np.testing.assert_array_equal(out, x)

    def test_identity_kernel_multichannel(self, rng):
        x = rng.standard_normal((6, 4, 3))
        out = conv2d(x, ConvKernel.identity(3), 1, PaddingMode.PERIODIC)
        np.testing.assert_allclose(out, x, rtol=0, atol=0)

    def test_stride_output_size_ceil(self, rng):
        x = rng.standard_normal((5, 5, 1))
        out = conv2d(x, ConvKernel.identity(1), 2, PaddingMode.ZERO)
        assert out.shape == (3, 3, 1)

    @pytest.mark.parametrize("m,n,s", [(5, 5, 2), (7, 4, 3), (9, 6, 2), (5, 5, 1)])
    def test_output_shape_general(self, rng, m, n, s):
        x = rng.standard_normal((m, n, 2))
        kern = ConvKernel(rng.standard_normal((3, 3, 4, 2)), rng.standard_normal(4))
        out = conv2d(x, kern, s, PaddingMode.ZERO)
        assert out.shape == (-(-m // s), -(-n // s), 4)

    def test_five_point_stencil_on_ones(self):
        u = np.ones((5, 5, 1))
        kern = ConvKernel.from_matrix(POISSON_STENCIL)
        out = conv2d(u, kern, 1, PaddingMode.ZERO)[:, :, 0]
        expected = reference_conv2d(u, kern, 1, PaddingMode.ZERO)[:, :, 0]
        np.testing.assert_allclose(out, expected, atol=1e-14)
        assert out[2, 2] == 0.0 and out[0, 2] == 1.0 and out[0, 0] == 2.0

    # tiny and odd grids, and a 5x5 kernel on a 2x3 grid: halos wider than the grid
    @pytest.mark.parametrize("m,n,kk", [(7, 7, 3), (1, 1, 3), (1, 4, 3), (2, 3, 3), (2, 3, 5)])
    @pytest.mark.parametrize("mode", ALL_MODES)
    @pytest.mark.parametrize("stride", [1, 2, 3])
    def test_matches_bruteforce_reference(self, rng, mode, stride, m, n, kk):
        x = rng.standard_normal((m, n, 3))
        kern = ConvKernel(rng.standard_normal((kk, kk, 4, 3)), rng.standard_normal(4))
        got = conv2d(x, kern, stride, mode)
        want = reference_conv2d(x, kern, stride, mode)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_linearity_without_bias(self, rng, mode):
        x = rng.standard_normal((6, 5, 2))
        y = rng.standard_normal((6, 5, 2))
        kern = ConvKernel(rng.standard_normal((3, 3, 3, 2)), np.zeros(3))
        a, b = 1.7, -0.4
        lhs = conv2d(a * x + b * y, kern, 1, mode)
        rhs = a * conv2d(x, kern, 1, mode) + b * conv2d(y, kern, 1, mode)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("mode", ALL_MODES)
    @pytest.mark.parametrize("stride", [2, 3])
    def test_stride_equals_subsampled_stride_one(self, rng, mode, stride):
        x = rng.standard_normal((9, 8, 2))
        kern = ConvKernel(rng.standard_normal((3, 3, 2, 2)), rng.standard_normal(2))
        full = conv2d(x, kern, 1, mode)
        # identical sums up to contraction order inside einsum
        np.testing.assert_allclose(full[::stride, ::stride],
                                   conv2d(x, kern, stride, mode),
                                   rtol=1e-12, atol=1e-13)

    def test_periodic_translation_equivariance(self, rng):
        x = rng.standard_normal((6, 6, 2))
        kern = ConvKernel(rng.standard_normal((3, 3, 2, 2)), rng.standard_normal(2))
        out = conv2d(x, kern, 1, PaddingMode.PERIODIC)
        for shift in (1, 2, 6):
            rolled = np.roll(x, shift, axis=(0, 1))
            np.testing.assert_allclose(conv2d(rolled, kern, 1, PaddingMode.PERIODIC),
                                       np.roll(out, shift, axis=(0, 1)), atol=1e-12)

    def test_outputs_finite_on_finite_inputs(self, rng):
        x = rng.standard_normal((8, 8, 3)) * 1e6
        kern = ConvKernel(rng.standard_normal((5, 5, 2, 3)), rng.standard_normal(2))
        for mode in ALL_MODES:
            assert np.isfinite(conv2d(x, kern, 2, mode)).all()

    def test_channel_mismatch_raises(self, rng):
        x = rng.standard_normal((5, 5, 2))
        with pytest.raises(ContractViolation):
            conv2d(x, ConvKernel.identity(3), 1, PaddingMode.ZERO)

    def test_empty_input_raises(self):
        with pytest.raises(ContractViolation):
            conv2d(np.zeros((0, 5, 1)), ConvKernel.identity(1), 1, PaddingMode.ZERO)

    def test_bad_stride_raises(self, rng):
        x = rng.standard_normal((5, 5, 1))
        with pytest.raises(ContractViolation):
            conv2d(x, ConvKernel.identity(1), 0, PaddingMode.ZERO)


class TestRelu:
    def test_examples(self):
        np.testing.assert_array_equal(relu(np.array([-1.0, 0.0, 2.0])), [0.0, 0.0, 2.0])

    def test_all_negative_goes_to_zero(self, rng):
        x = -np.abs(rng.standard_normal((4, 4, 2))) - 0.1
        assert (relu(x) == 0).all()

    def test_half_rectifications_recombine(self, rng):
        # relu(x) - relu(-x) = x; their sum is |x| (a common sign slip)
        x = rng.standard_normal((5, 5, 3))
        np.testing.assert_array_equal(relu(x) - relu(-x), x)
        np.testing.assert_array_equal(relu(x) + relu(-x), np.abs(x))


class TestSoftmax:
    def test_symmetry(self):
        np.testing.assert_allclose(softmax([0.0, 0.0]), [0.5, 0.5], atol=1e-15)

    def test_overflow_safety(self):
        out = softmax([1000.0, 1000.0])
        assert np.isfinite(out).all()
        np.testing.assert_allclose(out, [0.5, 0.5], atol=1e-15)

    def test_log_ratio_example(self):
        np.testing.assert_allclose(softmax(np.log([1.0, 3.0])), [0.25, 0.75], atol=1e-14)

    def test_sums_to_one_and_shift_invariant(self, rng):
        z = rng.standard_normal(11) * 10
        p = softmax(z)
        assert abs(p.sum() - 1.0) < 1e-12
        assert (p >= 0).all() and (p <= 1).all()
        np.testing.assert_allclose(softmax(z + 123.456), p, atol=1e-12)


class TestTypes:
    def test_kernel_shape_validation(self):
        with pytest.raises(ContractViolation):
            ConvKernel(np.zeros((2, 2, 1, 1)), np.zeros(1))
        with pytest.raises(ContractViolation):
            ConvKernel(np.zeros((3, 3, 2, 1)), np.zeros(1))

    def test_kernel_accessors(self):
        kern = ConvKernel.zeros(2, 3, 4)
        assert (kern.k, kern.in_channels, kern.out_channels) == (2, 3, 4)

    def test_stencil_matrix_matches(self):
        kern = ConvKernel.from_matrix(POISSON_STENCIL)
        np.testing.assert_array_equal(np.asarray(kern.weights)[:, :, 0, 0], POISSON_STENCIL)
