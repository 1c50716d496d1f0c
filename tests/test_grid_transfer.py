import numpy as np
import pytest

from mgnet import tensor_core
from mgnet.grid_transfer import RESTRICT_LINEAR, prolongate, prolongation_matrix, restrict_kr
from mgnet.poisson_mg import PoissonHierarchy, solve_poisson
from mgnet.tensor_core import ContractViolation, conv2d

from conftest import conv_restrict, from_matrix, restriction_matrix

# square, wide and tall coarse grids, down to the smallest the solver meets
COARSE_SHAPES = [(3, 4), (2, 2), (5, 3)]


class TestProlongate:
    @pytest.mark.parametrize("m,n", COARSE_SHAPES)
    def test_constant_preserved(self, m, n):
        fine = prolongate(np.full((m, n), 2.5))
        assert fine.shape == (2 * m - 1, 2 * n - 1)
        np.testing.assert_array_equal(fine, np.full((2 * m - 1, 2 * n - 1), 2.5))

    def test_linear_two_by_two_center(self):
        fine = prolongate(np.array([[1.0, 2.0], [3.0, 4.0]]))
        assert fine[1, 1] == (3.0 + 2.0) / 2.0
        np.testing.assert_array_equal(
            fine, [[1.0, 1.5, 2.0], [2.0, 2.5, 3.0], [3.0, 3.5, 4.0]])

    @pytest.mark.parametrize("m,n", [(5, 4)] + COARSE_SHAPES)
    def test_reproduces_linear_interpolants(self, rng, m, n):
        # nodal values of a + b*x + c*y prolongate to exactly the fine nodal values
        a, b, c = rng.standard_normal(3)
        ic, jc = np.meshgrid(np.arange(m), np.arange(n), indexing="ij")
        coarse = a + b * ic + c * jc
        i_f, j_f = np.meshgrid(np.arange(2 * m - 1) / 2, np.arange(2 * n - 1) / 2,
                               indexing="ij")
        want = a + b * i_f + c * j_f
        np.testing.assert_allclose(prolongate(coarse), want, atol=1e-12)

    @pytest.mark.parametrize("m,n", [(4, 5)] + COARSE_SHAPES)
    def test_nodal_restriction_roundtrip(self, rng, m, n):
        coarse = rng.standard_normal((m, n))
        np.testing.assert_array_equal(prolongate(coarse)[::2, ::2], coarse)


class TestRestrictKr:
    def test_kernel_matrix_exact(self):
        np.testing.assert_array_equal(
            RESTRICT_LINEAR, [[0.0, 0.5, 0.5], [0.5, 1.0, 0.5], [0.5, 0.5, 0.0]])

    @pytest.mark.parametrize("coarse_shape", [(3, 3), (5, 5), (3, 5), (4, 3), (5, 4)])
    def test_equals_prolongation_transpose(self, coarse_shape):
        m, n = coarse_shape
        p = prolongation_matrix(m, n)
        r = restriction_matrix(2 * m - 1, 2 * n - 1)
        np.testing.assert_array_equal(r, p.T)

    @pytest.mark.parametrize("coarse_shape", [(3, 3), (5, 5), (3, 5), (4, 3), (5, 4)])
    def test_adjoint_of_prolongate(self, rng, coarse_shape):
        # <restrict_kr(f), u> = <f, prolongate(u)> on the grids themselves, no matrices
        m, n = coarse_shape
        u = rng.standard_normal((m, n))
        f = rng.standard_normal((2 * m - 1, 2 * n - 1))
        np.testing.assert_allclose(np.vdot(restrict_kr(f), u), np.vdot(f, prolongate(u)),
                                   rtol=1e-12, atol=1e-12)

    def test_stride1_delta_reads_back_kernel(self):
        # convolving a centered delta at stride 1 reproduces the kernel pattern
        f = np.zeros((1, 5, 5, 1))
        f[0, 2, 2, 0] = 1.0
        out = conv2d(f, from_matrix(RESTRICT_LINEAR), 1)[0, :, :, 0]
        np.testing.assert_array_equal(out[1:4, 1:4], RESTRICT_LINEAR)

    def test_stride2_aligned_delta(self):
        f = np.zeros((5, 5))
        f[2, 2] = 1.0
        np.testing.assert_array_equal(restrict_kr(f), [[0, 0, 0], [0, 1, 0], [0, 0, 0]])

    @pytest.mark.parametrize("shape", [(1, 1), (2, 3), (33, 33), (65, 17)])
    def test_bitwise_equal_to_conv(self, rng, shape):
        # the stencil skips the zero corners and the zero bias the conv adds,
        # so it must add the other products in the conv's order, from +0.0
        fine = rng.standard_normal(shape)
        fine.flat[::5] = -0.0
        for grid in (fine, np.full(shape, -0.0)):
            coarse, reference = restrict_kr(grid), conv_restrict(grid)
            assert coarse.shape == (-(-shape[0] // 2), -(-shape[1] // 2))
            np.testing.assert_array_equal(coarse, reference)
            np.testing.assert_array_equal(np.signbit(coarse), np.signbit(reference))

    @pytest.mark.parametrize("bad", [np.zeros((0, 3)), np.zeros((3, 3, 1))])
    def test_rejects_empty_and_non_grid_input(self, bad):
        with pytest.raises(ContractViolation, match="grid"):
            restrict_kr(bad)

    def test_solver_runs_without_the_conv_core(self, monkeypatch, rng):
        # the hierarchy build and the cycle restrict through the stencil, not conv2d
        def no_conv(*args, **kwargs):
            raise AssertionError("the multigrid solver ran a convolution")
        monkeypatch.setattr(tensor_core, "_conv_forward", no_conv)
        with pytest.raises(AssertionError):
            conv_restrict(np.ones((3, 3)))
        h = PoissonHierarchy(65, 65, 5)
        assert solve_poisson(rng.standard_normal((65, 65)), 5, hierarchy=h).converged


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
