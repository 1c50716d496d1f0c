import dataclasses
import functools

import numpy as np
import pytest

from mgnet.grid_transfer import ProlongationMode, prolongation_matrix
from mgnet.poisson_mg import (POISSON_STENCIL, PoissonHierarchy, SmootherSpec,
                              backslash_mg, mg0, smooth, solve_poisson)
from mgnet.tensor_core import ContractViolation, ConvKernel, PaddingMode

from conftest import reference_conv2d


def dense_of(apply, m, n):
    """(mn, mn) matrix of a linear map on (m, n) grids, one unit column at a time."""
    cols = []
    for j in range(m * n):
        e = np.zeros((m, n))
        e.flat[j] = 1.0
        cols.append(np.asarray(apply(e)).ravel())
    return np.stack(cols, axis=1)


@functools.lru_cache(maxsize=None)
def reference_poisson(m):
    """Fine operator from the loop-based reference convolution; read-only."""
    kern = ConvKernel.from_matrix(POISSON_STENCIL)
    a = dense_of(lambda e: reference_conv2d(e[:, :, None], kern, 1, PaddingMode.ZERO), m, m)
    a.flags.writeable = False
    return a


def held_arrays(obj):
    """Every numpy array reachable through lists, tuples and dataclass fields."""
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, (list, tuple)):
        for v in obj:
            yield from held_arrays(v)
    elif dataclasses.is_dataclass(obj):
        for f in dataclasses.fields(obj):
            yield from held_arrays(getattr(obj, f.name))


class TestNodalChain:
    def test_nodal_chain(self):
        h = PoissonHierarchy(17, 17, 4)
        assert h.sizes == ((17, 17), (9, 9), (5, 5), (3, 3))

    def test_nodal_rejects_impossible_chain(self):
        with pytest.raises(ContractViolation, match="odd nodal chain"):
            PoissonHierarchy(16, 16, 2)
        with pytest.raises(ContractViolation, match="odd nodal chain"):
            PoissonHierarchy(5, 5, 4)
        with pytest.raises(ContractViolation, match="at least one level"):
            PoissonHierarchy(9, 9, 0)


class TestStencilOperator:
    def test_ones_pattern(self):
        h = PoissonHierarchy(5, 5, 2)
        out = h.apply(np.ones((5, 5)), 1)
        assert out[2, 2] == 0.0
        assert out[0, 2] == 1.0 and out[2, 0] == 1.0
        assert out[0, 0] == 2.0 and out[4, 4] == 2.0

    def test_delta_reads_back_stencil(self):
        h = PoissonHierarchy(5, 5, 2)
        u = np.zeros((5, 5))
        u[2, 2] = 1.0
        np.testing.assert_array_equal(h.apply(u, 1)[1:4, 1:4], POISSON_STENCIL)

    def test_matches_reference_conv(self, rng):
        h = PoissonHierarchy(9, 9, 2)
        u = rng.standard_normal((9, 9))
        via_reference = reference_conv2d(u[:, :, None], ConvKernel.from_matrix(POISSON_STENCIL),
                                         1, PaddingMode.ZERO)[:, :, 0]
        np.testing.assert_allclose(h.apply(u, 1), via_reference, atol=1e-12)

    def test_shape_mismatch_raises(self):
        h = PoissonHierarchy(9, 9, 2)
        with pytest.raises(ContractViolation):
            h.apply(np.zeros((5, 5)), 1)

    @pytest.mark.parametrize("level", [1, 2])
    def test_spd_as_dense_matrix(self, rng, level):
        h = PoissonHierarchy(9, 9, 2)
        m, n = h.sizes[level - 1]
        dense = dense_of(lambda u: h.apply(u, level), m, n)
        np.testing.assert_array_equal(dense, dense.T)
        for _ in range(10):
            v = rng.standard_normal(dense.shape[0])
            assert v @ dense @ v > 0.0


class TestJacobiSmoother:
    def test_one_step_is_quarter_scale(self, rng):
        f = rng.standard_normal((7, 7))
        np.testing.assert_allclose(smooth(f, SmootherSpec(1.0, 1)), f / 4.0, atol=1e-15)

    def test_two_step_kernel_at_omega_one(self):
        kern = np.asarray(SmootherSpec(1.0, 2).kernel().weights)[:, :, 0, 0]
        np.testing.assert_allclose(
            kern, [[0, 1 / 16, 0], [1 / 16, 1 / 4, 1 / 16], [0, 1 / 16, 0]], atol=1e-15)

    @pytest.mark.parametrize("omega", [0.4, 0.8, 1.0, 1.5])
    def test_fused_two_step_equals_composition(self, rng, omega):
        h = PoissonHierarchy(9, 9, 2)
        f = rng.standard_normal((9, 9))
        one = SmootherSpec(omega, 1)
        first = smooth(f, one)
        composed = first + smooth(f - h.apply(first, 1), one)
        np.testing.assert_allclose(smooth(f, SmootherSpec(omega, 2)), composed,
                                   rtol=1e-12, atol=1e-12)

    def test_omega_range_enforced(self):
        with pytest.raises(ContractViolation):
            SmootherSpec(0.0, 1)
        with pytest.raises(ContractViolation):
            SmootherSpec(2.0, 1)


class TestGalerkinCoarsening:
    def test_level1_is_the_stencil(self):
        h = PoissonHierarchy(9, 9, 2)
        delta = np.zeros((9, 9))
        delta[4, 4] = 1.0
        np.testing.assert_array_equal(h.apply(delta, 1)[3:6, 3:6], POISSON_STENCIL)

    def test_coarse_operator_matches_conv_route(self):
        # column j of the dense product R A P, re-derived with the convolution
        # operators instead of assembled matrices
        h = PoissonHierarchy(9, 9, 2)
        coarse = dense_of(lambda u: h.apply(u, 2), 5, 5)
        for j in range(25):
            basis = np.zeros((5, 5))
            basis.flat[j] = 1.0
            column = h.restrict(h.apply(h.prolong(basis, 1), 1)).ravel()
            np.testing.assert_allclose(coarse[:, j], column, atol=1e-12)

    def test_coarse_operator_symmetric(self):
        h = PoissonHierarchy(9, 9, 2)
        coarse = dense_of(lambda u: h.apply(u, 2), 5, 5)
        np.testing.assert_allclose(coarse, coarse.T, atol=1e-13)

    @pytest.mark.parametrize("level", [0, 3])
    def test_operator_out_of_range_raises(self, level):
        h = PoissonHierarchy(9, 9, 2)
        with pytest.raises(ContractViolation):
            h.operator(level)

    @pytest.mark.parametrize("mode", list(ProlongationMode))
    @pytest.mark.parametrize("size,levels", [(17, 3), (33, 4)])
    def test_field_matches_dense_galerkin_product(self, size, levels, mode):
        # P^T A P with A from reference-convolution columns and P from
        # prolongation_matrix, against the field read back as a dense matrix
        h = PoissonHierarchy(size, size, levels, mode)
        a = reference_poisson(size)
        for l in range(2, levels + 1):
            m, n = h.sizes[l - 1]
            p = prolongation_matrix(m, n, mode)
            a = p.T @ a @ p
            coef = h.operator(l).coef
            assert coef.shape == (m, n, 3, 3)
            field = np.zeros_like(a)
            for i in range(m):
                for j in range(n):
                    for di in (-1, 0, 1):
                        for dj in (-1, 0, 1):
                            c = coef[i, j, di + 1, dj + 1]
                            if 0 <= i + di < m and 0 <= j + dj < n:
                                field[i * n + j, (i + di) * n + j + dj] = c
                            else:
                                assert c == 0.0
            np.testing.assert_allclose(field, a, rtol=0.0, atol=1e-12)


class TestMatrixFree:
    def test_257_hierarchy_is_small(self):
        h = PoissonHierarchy(257, 257, 8)
        arrays = list(held_arrays(list(vars(h).values())))
        assert arrays
        assert all(a.size <= 9 * 257 * 257 for a in arrays)
        assert sum(a.nbytes for a in arrays) < 10e6

    def test_converges_at_129(self, rng):
        # about 0.86 residual reduction per cycle: 100-125 cycles to 1e-10
        result = solve_poisson(rng.standard_normal((129, 129)), 5, cycles=200)
        assert result.converged


class TestMg0:
    def test_zero_rhs_stays_zero(self):
        trace = mg0(np.zeros((9, 9)), 2, [2, 2])
        for level in trace.u_iterates:
            for u in level:
                assert (u == 0).all()

    def test_first_iterate_is_scaled_rhs(self, rng):
        f = rng.standard_normal((9, 9))
        omega = 0.8
        trace = mg0(f, 2, [2, 2], SmootherSpec(omega, 1))
        np.testing.assert_allclose(trace.u_iterates[0][1], omega / 4.0 * f, atol=1e-15)

    def test_matches_dense_reference(self, rng):
        # dense-matrix transcription of the fine-to-coarse sweep
        f = rng.standard_normal((9, 9))
        levels, nu, omega = 2, [2, 1], 0.8
        h = PoissonHierarchy(9, 9, levels)
        trace = mg0(f, levels, nu, SmootherSpec(omega, 1), h)

        f_vec = f.ravel()
        a = reference_poisson(9)
        for l in range(1, levels + 1):
            m, n = h.sizes[l - 1]
            u_vec = np.zeros(m * n)
            for i in range(nu[l - 1]):
                u_vec = u_vec + omega / 4.0 * (f_vec - a @ u_vec)
                np.testing.assert_allclose(trace.u_iterates[l - 1][i + 1].ravel(),
                                           u_vec, atol=1e-12)
            np.testing.assert_allclose(trace.f_levels[l - 1].ravel(), f_vec, atol=1e-12)
            if l < levels:
                cm, cn = h.sizes[l]
                p = prolongation_matrix(cm, cn, h.mode)
                f_vec = p.T @ (f_vec - a @ u_vec)
                a = p.T @ a @ p

    def test_restricted_residual_identity(self, rng):
        f = rng.standard_normal((17, 17))
        h = PoissonHierarchy(17, 17, 3)
        trace = mg0(f, 3, [2, 2, 2], SmootherSpec(0.8, 1), h)
        for l in (1, 2):
            recomputed = h.restrict(trace.f_levels[l - 1]
                                    - h.apply(trace.u_iterates[l - 1][-1], l))
            np.testing.assert_array_equal(trace.f_levels[l], recomputed)

    def test_wrong_nu_length_raises(self):
        with pytest.raises(ContractViolation):
            mg0(np.zeros((9, 9)), 2, [2])

    def test_non_odd_chain_raises(self):
        with pytest.raises(ContractViolation):
            mg0(np.zeros((8, 8)), 2, [2, 2])


class TestBackslashCycle:
    def test_zero_rhs(self):
        out = backslash_mg(np.zeros((9, 9)), 2, [2, 2])
        assert (out == 0).all()

    def test_single_cycle_reduces_residual(self, rng):
        size = 17
        h = PoissonHierarchy(size, size, 3)
        f = rng.standard_normal((size, size))
        u = backslash_mg(f, 3, [2, 2, 2], SmootherSpec(0.8, 1), h)
        assert np.linalg.norm(f - h.apply(u, 1)) < np.linalg.norm(f)

    @pytest.mark.parametrize("size,levels", [(17, 3), (33, 4)])
    def test_converges_to_direct_solution(self, rng, size, levels):
        h = PoissonHierarchy(size, size, levels)
        f = rng.standard_normal((size, size))
        result = solve_poisson(f, levels, [2] * levels, omega=0.8, cycles=50,
                               rtol=1e-12, hierarchy=h)
        reference = h.direct_solve(f)
        rel = np.linalg.norm(result.u - reference) / np.linalg.norm(reference)
        assert rel < 1e-8
        assert result.cycles <= 50

    @pytest.mark.parametrize("omega", [0.5, 0.8, 1.0])
    @pytest.mark.parametrize("size,levels", [(9, 2), (17, 3), (33, 4)])
    def test_residual_monotone(self, rng, omega, size, levels):
        h = PoissonHierarchy(size, size, levels)
        f = rng.standard_normal((size, size))
        result = solve_poisson(f, levels, [2] * levels, omega=omega, cycles=25,
                               rtol=0.0, hierarchy=h)
        drops = [b < a for a, b in zip(result.residual_norms, result.residual_norms[1:])]
        assert all(drops)
