import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mgnet
from mgnet.grid_transfer import prolongate, prolongation_matrix, restrict_kr
from mgnet.poisson_mg import (POISSON_STENCIL, POISSON_TAPS, PoissonHierarchy, backslash_mg,
                              mg0, smooth, solve_poisson)
from mgnet.tensor_core import ContractViolation

from conftest import from_matrix, reference_conv2d, reference_poisson


def dense_of(apply, m, n):
    """(mn, mn) matrix of a linear map on (m, n) grids, one unit column at a time."""
    cols = []
    for j in range(m * n):
        e = np.zeros((m, n))
        e.flat[j] = 1.0
        cols.append(np.asarray(apply(e)).ravel())
    return np.stack(cols, axis=1)


def held_arrays(obj):
    """Every numpy array reachable through lists, tuples, dict values and dataclass fields."""
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, (list, tuple)):
        for v in obj:
            yield from held_arrays(v)
    elif isinstance(obj, dict):
        yield from held_arrays(list(obj.values()))
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
        with pytest.raises(ContractViolation, match="levels must be an integer >= 1"):
            PoissonHierarchy(9, 9, 0)

    def test_coarsest_grid_is_capped(self):
        # 129 -> 65 leaves a 65x65 coarsest grid, too large to invert densely
        with pytest.raises(ContractViolation, match="at least 3 levels"):
            PoissonHierarchy(129, 129, 2)
        assert PoissonHierarchy(129, 129, 3).sizes[-1] == (33, 33)


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
        via_reference = reference_conv2d(u[:, :, None], from_matrix(POISSON_STENCIL), 1)[:, :, 0]
        np.testing.assert_allclose(h.apply(u, 1), via_reference, atol=1e-12)

    def test_shape_mismatch_raises(self):
        h = PoissonHierarchy(9, 9, 2)
        with pytest.raises(ContractViolation):
            h.apply(np.zeros((5, 5)), 1)

    @pytest.mark.parametrize("m,n", [(9, 9), (5, 9)])
    def test_kronecker_oracle_is_the_reference_conv(self, m, n):
        kern = from_matrix(POISSON_STENCIL)
        via_conv = dense_of(lambda e: reference_conv2d(e[:, :, None], kern, 1), m, n)
        np.testing.assert_array_equal(reference_poisson(m, n), via_conv)

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
        h = PoissonHierarchy(7, 7, 1)
        np.testing.assert_allclose(smooth(f, h, 1, 1.0), f / 4.0, atol=1e-15)

    def test_shape_mismatch_raises(self):
        h = PoissonHierarchy(9, 9, 2)
        with pytest.raises(ContractViolation, match="level 2 operator expects shape"):
            smooth(np.zeros((9, 9)), h, 2, 0.8)

    @pytest.mark.parametrize("omega", [0.0, 2.0, -0.5, float("nan")])
    def test_omega_range_enforced(self, omega):
        f = np.ones((9, 9))
        with pytest.raises(ContractViolation):
            solve_poisson(f, 2, omega=omega)
        with pytest.raises(ContractViolation):
            solve_poisson(f, 1, omega=omega)
        with pytest.raises(ContractViolation):
            mg0(f, PoissonHierarchy(9, 9, 2), [1, 1], omega)


class TestGalerkinCoarsening:
    def test_level1_is_the_stencil(self):
        h = PoissonHierarchy(9, 9, 2)
        delta = np.zeros((9, 9))
        delta[4, 4] = 1.0
        np.testing.assert_array_equal(h.apply(delta, 1)[3:6, 3:6], POISSON_STENCIL)

    def test_level1_taps_are_scalars_owned_per_hierarchy(self):
        h, other = PoissonHierarchy(9, 9, 2), PoissonHierarchy(9, 9, 2)
        live = {(p, q): POISSON_STENCIL[p, q] for p, q in zip(*np.nonzero(POISSON_STENCIL))}
        assert h.fields[0] == live == POISSON_TAPS
        assert list(h.fields[0]) == sorted(live)  # row-major order
        assert not list(held_arrays(h.fields[0]))
        h.fields[0][1, 1] = 5.0
        assert other.fields[0][1, 1] == 4.0 and POISSON_TAPS[1, 1] == 4.0

    def test_coarse_operator_matches_conv_route(self):
        # column j of the dense product R A P, re-derived with the convolution
        # operators instead of assembled matrices
        h = PoissonHierarchy(9, 9, 2)
        coarse = dense_of(lambda u: h.apply(u, 2), 5, 5)
        for j in range(25):
            basis = np.zeros((5, 5))
            basis.flat[j] = 1.0
            column = restrict_kr(h.apply(prolongate(basis), 1)).ravel()
            np.testing.assert_allclose(coarse[:, j], column, atol=1e-12)

    def test_coarse_operator_symmetric(self):
        h = PoissonHierarchy(9, 9, 2)
        coarse = dense_of(lambda u: h.apply(u, 2), 5, 5)
        np.testing.assert_allclose(coarse, coarse.T, atol=1e-13)

    @pytest.mark.parametrize("level", [0, 3])
    def test_operator_out_of_range_raises(self, level):
        h = PoissonHierarchy(9, 9, 2)
        with pytest.raises(ContractViolation, match="no operator at level"):
            h.apply(np.zeros((9, 9)), level)

    @pytest.mark.parametrize("size,levels", [(17, 3), (33, 4)])
    def test_field_matches_dense_galerkin_product(self, size, levels):
        # P^T A P with A the Kronecker-sum Laplacian and P from
        # prolongation_matrix, against the field read back as a dense matrix
        h = PoissonHierarchy(size, size, levels)
        a = reference_poisson(size, size)
        for l in range(2, levels + 1):
            m, n = h.sizes[l - 1]
            p = prolongation_matrix(m, n)
            a = p.T @ a @ p
            taps = h.fields[l - 1]
            for plane in taps.values():
                assert plane.shape == (m, n) and plane.any()
            field = np.zeros_like(a)
            for i in range(m):
                for j in range(n):
                    for di in (-1, 0, 1):
                        for dj in (-1, 0, 1):
                            plane = taps.get((di + 1, dj + 1))
                            c = 0.0 if plane is None else plane[i, j]
                            if 0 <= i + di < m and 0 <= j + dj < n:
                                field[i * n + j, (i + di) * n + j + dj] = c
                            else:
                                assert c == 0.0
            np.testing.assert_allclose(field, a, rtol=0.0, atol=1e-12)


class TestCounts:
    @pytest.mark.parametrize("call,message", [
        (lambda f: PoissonHierarchy(17, 17, 2.5), "levels must be an integer >= 1, got 2.5"),
        (lambda f: solve_poisson(f, 3, [1.5, 2, 2]), "every nu entry must be an integer >= 1"),
        (lambda f: solve_poisson(f, 3, cycles=2.5), "cycles must be an integer >= 1, got 2.5"),
        (lambda f: mg0(f, PoissonHierarchy(17, 17, 3), [-1, 2, 2]),
         "every nu entry must be an integer >= 0, got -1"),
        (lambda f: solve_poisson(f, True, [2]), "levels must be an integer >= 1, got True"),
    ], ids=["hierarchy-levels-float", "solve-nu-float", "solve-cycles-float",
            "mg0-nu-negative", "solve-levels-bool"])
    def test_counts_are_checked_integers(self, call, message):
        with pytest.raises(ContractViolation, match=message):
            call(np.ones((17, 17)))

    @pytest.mark.parametrize("m,n,name", [(17.0, 17, "m"), (17, 17.0, "n"), (True, 17, "m")])
    def test_grid_sizes_are_checked_integers(self, m, n, name):
        with pytest.raises(ContractViolation, match=f"{name} must be an integer >= 1"):
            PoissonHierarchy(m, n, 2)

    @pytest.mark.parametrize("call", [
        lambda h, u: h.apply(u, 1.5),
        lambda h, u: h.apply(u, True),
        lambda h, u: h.apply(u, 1.0),
        lambda h, u: smooth(u, h, 1.5, 0.8),
    ], ids=["apply-float", "apply-bool", "apply-integral-float", "smooth-float"])
    def test_level_is_a_checked_integer(self, call):
        h = PoissonHierarchy(9, 9, 2)
        with pytest.raises(ContractViolation, match="no operator at level"):
            call(h, np.ones((9, 9)))

    def test_numpy_integer_level_accepted(self):
        h = PoissonHierarchy(9, 9, 2)
        u = np.ones((5, 5))
        np.testing.assert_array_equal(h.apply(u, np.int64(2)), h.apply(u, 2))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("run", [
        lambda f: solve_poisson(f, 2),
        lambda f: mg0(f, PoissonHierarchy(9, 9, 2), [2, 2]),
        lambda f: backslash_mg(f, PoissonHierarchy(9, 9, 2), [2, 2]),
    ], ids=["solve_poisson", "mg0", "backslash_mg"])
    def test_non_finite_rhs_rejected(self, run, bad):
        f = np.ones((9, 9))
        f[0, 0] = f[4, 3] = bad
        message = r"2 non-finite values \(first .* at \(0, 0\)\)"
        with pytest.raises(ContractViolation, match=message):
            run(f)

    def test_zero_rhs_solves_in_no_cycles(self):
        result = solve_poisson(np.zeros((9, 9)), 2)
        assert (result.u == 0).all()
        assert (result.residual_norms, result.cycles, result.converged) == ([0.0], 0, True)


class TestMatrixFree:
    def test_257_hierarchy_is_small(self):
        h = PoissonHierarchy(257, 257, 8)
        arrays = list(held_arrays(list(vars(h).values())))
        assert arrays
        assert all(a.size <= 9 * 257 * 257 for a in arrays)
        assert sum(a.nbytes for a in arrays) < 10e6

    def test_converges_at_129(self, rng):
        # the exact coarse solve gives about 0.44 residual reduction per cycle
        result = solve_poisson(rng.standard_normal((129, 129)), 5)
        assert result.converged and result.cycles <= 30

    @pytest.mark.parametrize("size,levels", [(129, 4), (257, 6)])
    def test_cycle_count_independent_of_depth(self, rng, size, levels):
        # coarsest grids 17x17 and 9x9: a smoothed coarsest level needs
        # 100-200 cycles here, an exact one as few as at full depth
        result = solve_poisson(rng.standard_normal((size, size)), levels)
        assert result.converged and result.cycles <= 30

    @pytest.mark.parametrize("size,levels", [(65, 6), (129, 6), (129, 7), (257, 8)])
    def test_deep_hierarchy_converges(self, rng, size, levels):
        # coarse boundary diagonals reach 23.4 at level 6; Jacobi weighted by
        # omega / 4 instead of omega / diag diverges at these depths
        result = solve_poisson(rng.standard_normal((size, size)), levels, cycles=50)
        assert result.converged


class TestMg0:
    def test_zero_rhs_stays_zero(self):
        trace = mg0(np.zeros((9, 9)), PoissonHierarchy(9, 9, 2), [2, 2])
        for level in trace.u_iterates:
            for u in level:
                assert (u == 0).all()

    def test_first_iterate_is_scaled_rhs(self, rng):
        f = rng.standard_normal((9, 9))
        omega = 0.8
        trace = mg0(f, PoissonHierarchy(9, 9, 2), [2, 2], omega)
        np.testing.assert_allclose(trace.u_iterates[0][1], omega / 4.0 * f, atol=1e-15)

    @pytest.mark.parametrize("size,nu", [(9, [2, 1]), (17, [2, 1, 2])], ids=["9-L2", "17-L3"])
    def test_matches_dense_reference(self, rng, size, nu):
        # dense-matrix transcription of the fine-to-coarse sweep; the 17^2
        # level-3 matrix has boundary diagonal 5, so a smoother scaled by the
        # fine-grid 4 on every level fails this
        f = rng.standard_normal((size, size))
        levels, omega = len(nu), 0.8
        h = PoissonHierarchy(size, size, levels)
        trace = mg0(f, h, nu, omega)

        f_vec = f.ravel()
        a = reference_poisson(size, size)
        for l in range(1, levels + 1):
            m, n = h.sizes[l - 1]
            u_vec = np.zeros(m * n)
            for i in range(nu[l - 1]):
                u_vec = u_vec + omega / np.diag(a) * (f_vec - a @ u_vec)
                np.testing.assert_allclose(trace.u_iterates[l - 1][i + 1].ravel(),
                                           u_vec, atol=1e-12)
            np.testing.assert_allclose(trace.f_levels[l - 1].ravel(), f_vec, atol=1e-12)
            if l < levels:
                cm, cn = h.sizes[l]
                p = prolongation_matrix(cm, cn)
                f_vec = p.T @ (f_vec - a @ u_vec)
                a = p.T @ a @ p

    def test_restricted_residual_identity(self, rng):
        f = rng.standard_normal((17, 17))
        h = PoissonHierarchy(17, 17, 3)
        trace = mg0(f, h, [2, 2, 2], 0.8)
        for l in (1, 2):
            recomputed = restrict_kr(trace.f_levels[l - 1]
                                     - h.apply(trace.u_iterates[l - 1][-1], l))
            np.testing.assert_array_equal(trace.f_levels[l], recomputed)

    def test_wrong_nu_length_raises(self):
        with pytest.raises(ContractViolation, match="nu must have 2 entries, got 1"):
            mg0(np.zeros((9, 9)), PoissonHierarchy(9, 9, 2), [2])

    def test_non_odd_chain_raises(self):
        with pytest.raises(ContractViolation):
            mg0(np.zeros((8, 8)), PoissonHierarchy(8, 8, 2), [2, 2])


class TestDirectSolve:
    @pytest.mark.parametrize("m,n,levels", [(17, 17, 3), (33, 33, 4), (17, 33, 2)])
    def test_matches_kronecker_oracle(self, rng, m, n, levels):
        f = rng.standard_normal((m, n))
        expected = np.linalg.solve(reference_poisson(m, n), f.ravel()).reshape(m, n)
        np.testing.assert_allclose(PoissonHierarchy(m, n, levels).direct_solve(f), expected,
                                   rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("size,levels", [(129, 3), (513, 5)])
    def test_residual_at_large_grids(self, rng, size, levels):
        h = PoissonHierarchy(size, size, levels)
        f = rng.standard_normal((size, size))
        residual = f - h.apply(h.direct_solve(f), 1)
        assert np.linalg.norm(residual) / np.linalg.norm(f) < 1e-13

    def test_same_bytes_at_one_and_two_blas_threads(self):
        # the sine transform calls no BLAS routine, so its rounding is fixed
        code = ("import hashlib, numpy as np; from mgnet.poisson_mg import PoissonHierarchy; "
                "f = np.random.default_rng(0).standard_normal((129, 129)); "
                "print(hashlib.sha256(PoissonHierarchy(129, 129, 3).direct_solve(f)).hexdigest())")
        digests = set()
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                       MKL_NUM_THREADS=threads, PYTHONPATH=str(Path(mgnet.__file__).parents[1]))
            done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                                  text=True, check=True)
            digests.add(done.stdout)
        assert len(digests) == 1


class TestBackslashCycle:
    def test_zero_rhs(self):
        out = backslash_mg(np.zeros((9, 9)), PoissonHierarchy(9, 9, 2), [2, 2])
        assert (out == 0).all()

    def test_one_level_is_the_direct_solve(self, rng):
        h = PoissonHierarchy(17, 17, 1)
        f = rng.standard_normal((17, 17))
        np.testing.assert_allclose(backslash_mg(f, h, [2], 0.8), h.direct_solve(f),
                                   rtol=0.0, atol=1e-12)

    def test_deeper_hierarchy_rejected(self):
        # its coarse inverse belongs to level 3, not to the solve's level 2
        h = PoissonHierarchy(17, 17, 3)
        with pytest.raises(ContractViolation, match="3 levels"):
            solve_poisson(np.ones((17, 17)), 2, hierarchy=h)

    def test_other_fine_grid_rejected(self):
        h = PoissonHierarchy(17, 17, 2)
        for run, message in (
                (lambda f: mg0(f, h, [2, 2], 0.8), "level 1 operator expects shape"),
                (lambda f: backslash_mg(f, h, [2, 2], 0.8), "level 1 operator expects shape"),
                (lambda f: solve_poisson(f, 2, hierarchy=h), "does not fit")):
            with pytest.raises(ContractViolation, match=message):
                run(np.ones((9, 9)))

    @pytest.mark.parametrize("levels,nu,message", [
        (1, [], "nu must have 1 entries, got 0"),
        (2, [2, -1], "every nu entry must be an integer >= 0, got -1"),
        (2, [2, "x"], "every nu entry must be an integer >= 0, got 'x'"),
    ], ids=["empty", "negative-coarsest", "non-integer-coarsest"])
    def test_whole_nu_checked_before_the_coarsest_is_dropped(self, levels, nu, message):
        # the cycle never smooths its coarsest level, but its count must still be valid
        h = PoissonHierarchy(9, 9, levels)
        with pytest.raises(ContractViolation, match=message):
            backslash_mg(np.ones((9, 9)), h, nu, 0.8)

    def test_only_two_dimensional_grids(self):
        with pytest.raises(ContractViolation, match="grid"):
            solve_poisson(np.ones((9, 9, 1)), 2)

    def test_coarse_inverse_built_on_first_coarse_solve(self, rng):
        # mg0 alone, as in the mg0 certificate, never pays for the inverse
        h = PoissonHierarchy(17, 17, 3)
        f = rng.standard_normal((17, 17))
        mg0(f, h, [2, 2, 2], 0.8)
        assert "_coarse_inverse" not in vars(h)
        backslash_mg(f, h, [2, 2, 2], 0.8)
        assert vars(h)["_coarse_inverse"].shape == (25, 25)

    # 5x5, 17x17 and 9x17 coarsest grids
    @pytest.mark.parametrize("m,n,levels", [(33, 33, 4), (65, 65, 3), (17, 33, 2)])
    def test_coarse_solve_inverts_apply(self, rng, m, n, levels):
        h = PoissonHierarchy(m, n, levels)
        u = rng.standard_normal(h.sizes[-1])
        np.testing.assert_allclose(h.coarse_solve(h.apply(u, levels)), u, rtol=0.0, atol=1e-12)

    def test_coarse_solve_matches_kronecker_oracle(self, rng):
        h = PoissonHierarchy(17, 17, 1)
        f = rng.standard_normal((17, 17))
        want = np.linalg.solve(reference_poisson(17, 17), f.ravel()).reshape(17, 17)
        np.testing.assert_allclose(h.coarse_solve(f), want, rtol=0.0, atol=1e-12)

    def test_last_residual_is_the_final_iterate_residual(self, rng):
        h = PoissonHierarchy(33, 33, 4)
        f = rng.standard_normal((33, 33))
        result = solve_poisson(f, 4, hierarchy=h)
        assert result.residual_norms[-1] == np.linalg.norm(f - h.apply(result.u, 1))

    def test_single_cycle_reduces_residual(self, rng):
        size = 17
        h = PoissonHierarchy(size, size, 3)
        f = rng.standard_normal((size, size))
        u = backslash_mg(f, h, [2, 2, 2], 0.8)
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
