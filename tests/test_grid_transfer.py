import numpy as np
import pytest

from mgnet.grid_transfer import (ProlongationMode, RESTRICT_BILINEAR, RESTRICT_LINEAR,
                                 prolongate, prolongation_matrix, restrict_kr,
                                 restriction_kernel)
from mgnet.tensor_core import ConvKernel, PaddingMode, conv2d

from conftest import restriction_matrix

MODES = list(ProlongationMode)


class TestProlongate:
    @pytest.mark.parametrize("mode", MODES)
    def test_constant_preserved(self, mode):
        coarse = np.full((3, 4, 2), 2.5)
        fine = prolongate(coarse, mode)
        assert fine.shape == (5, 7, 2)
        np.testing.assert_array_equal(fine, np.full((5, 7, 2), 2.5))

    def test_bilinear_two_by_two(self):
        coarse = np.array([[1.0, 2.0], [3.0, 4.0]])[:, :, None]
        fine = prolongate(coarse, ProlongationMode.BILINEAR)[:, :, 0]
        np.testing.assert_array_equal(
            fine, [[1.0, 1.5, 2.0], [2.0, 2.5, 3.0], [3.0, 3.5, 4.0]])

    def test_linear_two_by_two_center(self):
        coarse = np.array([[1.0, 2.0], [3.0, 4.0]])[:, :, None]
        fine = prolongate(coarse, ProlongationMode.LINEAR)[:, :, 0]
        assert fine[1, 1] == (3.0 + 2.0) / 2.0
        np.testing.assert_array_equal(
            fine, [[1.0, 1.5, 2.0], [2.0, 2.5, 3.0], [3.0, 3.5, 4.0]])

    @pytest.mark.parametrize("mode", MODES)
    def test_reproduces_linear_interpolants(self, mode, rng):
        # nodal values of a + b*x + c*y prolongate to exactly the fine nodal values
        a, b, c = rng.standard_normal(3)
        m, n = 5, 4
        ic, jc = np.meshgrid(np.arange(m), np.arange(n), indexing="ij")
        coarse = a + b * ic + c * jc
        i_f, j_f = np.meshgrid(np.arange(2 * m - 1) / 2, np.arange(2 * n - 1) / 2,
                               indexing="ij")
        want = a + b * i_f + c * j_f
        got = prolongate(coarse[:, :, None], mode)[:, :, 0]
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_bilinear_reproduces_bilinear_interpolants(self, rng):
        a, b, c, d = rng.standard_normal(4)
        m = 4
        ic, jc = np.meshgrid(np.arange(m), np.arange(m), indexing="ij")
        coarse = a + b * ic + c * jc + d * ic * jc
        ff = np.arange(2 * m - 1) / 2
        i_f, j_f = np.meshgrid(ff, ff, indexing="ij")
        want = a + b * i_f + c * j_f + d * i_f * j_f
        got = prolongate(coarse[:, :, None], ProlongationMode.BILINEAR)[:, :, 0]
        np.testing.assert_allclose(got, want, atol=1e-12)

    @pytest.mark.parametrize("mode", MODES)
    def test_nodal_restriction_roundtrip(self, mode, rng):
        coarse = rng.standard_normal((4, 5, 3))
        fine = prolongate(coarse, mode)
        np.testing.assert_array_equal(fine[::2, ::2], coarse)


class TestRestrictKr:
    def test_kernel_matrices_exact(self):
        np.testing.assert_array_equal(
            restriction_kernel(ProlongationMode.BILINEAR),
            [[0.25, 0.5, 0.25], [0.5, 1.0, 0.5], [0.25, 0.5, 0.25]])
        np.testing.assert_array_equal(
            restriction_kernel(ProlongationMode.LINEAR),
            [[0.0, 0.5, 0.5], [0.5, 1.0, 0.5], [0.5, 0.5, 0.0]])
        assert RESTRICT_BILINEAR[1, 1] == 1.0 and RESTRICT_LINEAR[0, 0] == 0.0

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("coarse_shape", [(3, 3), (5, 5), (3, 5), (4, 3), (5, 4)])
    def test_equals_prolongation_transpose(self, mode, coarse_shape):
        m, n = coarse_shape
        p = prolongation_matrix(m, n, mode)
        r = restriction_matrix(2 * m - 1, 2 * n - 1, mode)
        np.testing.assert_array_equal(r, p.T)

    @pytest.mark.parametrize("mode", MODES)
    def test_stride1_delta_reads_back_kernel(self, mode):
        # convolving a centered delta at stride 1 reproduces the kernel pattern
        f = np.zeros((5, 5, 1))
        f[2, 2, 0] = 1.0
        kern = ConvKernel.from_matrix(restriction_kernel(mode))
        out = conv2d(f, kern, 1, PaddingMode.ZERO)[:, :, 0]
        np.testing.assert_array_equal(out[1:4, 1:4], restriction_kernel(mode))

    @pytest.mark.parametrize("mode", MODES)
    def test_stride2_aligned_delta(self, mode):
        f = np.zeros((5, 5, 1))
        f[2, 2, 0] = 1.0
        out = restrict_kr(f, mode)[:, :, 0]
        np.testing.assert_array_equal(out, [[0, 0, 0], [0, 1, 0], [0, 0, 0]])

    def test_channels_handled_independently(self, rng):
        f = rng.standard_normal((5, 5, 3))
        out = restrict_kr(f, ProlongationMode.BILINEAR)
        for c in range(3):
            np.testing.assert_allclose(
                out[:, :, c], restrict_kr(f[:, :, c:c + 1], ProlongationMode.BILINEAR)[:, :, 0],
                rtol=1e-13, atol=1e-13)


class TestInterpolatePi:
    def test_weight_count_comparison(self):
        # one shared single-channel stencil vs a full channel-mixing kernel
        from mgnet.mgnet_model import MgNetConfig, parameter_shapes
        base = dict(J=3, nu=(1, 1, 1), c_u=6, c_f=6, use_batchnorm=False,
                    in_channels=1, classes=2)
        s1 = parameter_shapes(MgNetConfig(pi_variant="pi1", **base))
        s2 = parameter_shapes(MgNetConfig(pi_variant="pi2", **base))
        assert int(np.prod(s1["level1/pi/weights"])) == 9 * 6 * 6
        assert int(np.prod(s2["level1/pi/weights"])) == 9
