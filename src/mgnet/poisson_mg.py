"""Discrete 2-D Poisson problem and a geometric multigrid solver.

Every level's operator is the map of its live 3x3 stencil taps, applied
with zero padding (a Dirichlet-type truncation at the boundary, which makes
it SPD) by `grid_transfer.stencil`, the routine restriction runs at stride 2.
Level 1 is the constant 5-point stencil, one scalar per tap; coarse levels
hold one coefficient plane per tap, from the Galerkin triple products R A P
with R = P^T, probed through the transfers themselves.  Smoothing is damped
Jacobi scaled by the centre tap of each level's own map, so the smoother
needs no second per-level representation.

The backslash cycle smooths every level but the coarsest, which it solves
exactly with a dense inverse, built from `apply`'s columns on the
hierarchy's first coarse solve; this makes the cycle's convergence factor
independent of depth.  The coarsest grid is therefore capped at
``COARSEST_MAX_SIZE`` per side (33x33: 1,089 unknowns, a 9.5 MB inverse).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .grid_transfer import prolongate, restrict_kr, stencil
from .tensor_core import ContractViolation, _check_count

POISSON_STENCIL = np.array([[0.0, -1.0, 0.0],
                            [-1.0, 4.0, -1.0],
                            [0.0, -1.0, 0.0]])
# its nonzero taps (the 5-point cross) in row-major order
POISSON_TAPS = {(p, q): POISSON_STENCIL[p, q] for p in range(3) for q in range(3)
                if POISSON_STENCIL[p, q]}

# largest coarsest-grid side the hierarchy inverts densely
COARSEST_MAX_SIZE = 33


class PoissonHierarchy:
    """Grids, grid transfers and one Galerkin stencil per level.

    ``sizes[l - 1]`` is the level-l grid (m_l, n_l) of the nodal chain
    m -> (m+1)/2 -> ..., which needs an odd size >= 3 at every level and a
    coarsest grid of at most ``COARSEST_MAX_SIZE`` per side.  ``fields[l - 1]``
    is the level-l operator A^l as its live taps ``{(p, q): c}`` in row-major
    order: at (i, j), tap (p, q) multiplies ``u[i + p - 1, j + q - 1]`` by
    ``c`` (by ``c[i, j]`` when ``c`` is an (m_l, n_l) plane), and samples
    outside the grid read zero.  Level 1 holds this hierarchy's own copy of
    `POISSON_TAPS`, one scalar per tap; a coarser level holds one plane per
    tap that is not zero everywhere.  The transfers are `prolongate` and its
    transpose `restrict_kr`.
    """

    def __init__(self, m: int, n: int, levels: int):
        _check_count("m", m, 1)
        _check_count("n", n, 1)
        _check_count("levels", levels, 1)
        sizes, cm, cn = [], m, n
        for _ in range(levels):
            if cm < 3 or cn < 3 or cm % 2 == 0 or cn % 2 == 0:
                raise ContractViolation(
                    f"odd nodal chain of depth {levels} does not exist for {m}x{n}: "
                    f"level size {cm}x{cn} is not odd and >= 3")
            sizes.append((cm, cn))
            cm, cn = (cm + 1) // 2, (cn + 1) // 2
        if max(sizes[-1]) > COARSEST_MAX_SIZE:
            depth, side = levels, max(sizes[-1])
            while side > COARSEST_MAX_SIZE:
                depth, side = depth + 1, (side + 1) // 2
            raise ContractViolation(
                f"coarsest grid {sizes[-1][0]}x{sizes[-1][1]} of {m}x{n} at depth {levels} "
                f"exceeds {COARSEST_MAX_SIZE}x{COARSEST_MAX_SIZE}; use at least {depth} levels")
        self.sizes = tuple(sizes)
        self.fields = [dict(POISSON_TAPS)]
        for l in range(1, levels):
            self.fields.append(self._galerkin(l))

    def _galerkin(self, level: int) -> dict:
        """The live taps of R A^l P, probed with the 9 colour vectors
        ``e[a::3, b::3] = 1``.

        A 3x3 stencil stays 3x3 under Galerkin coarsening with linear
        prolongation, and a 3x3 neighbourhood meets each colour once, so the
        probe of the colour of (i + p - 1, j + q - 1), read at (i, j), is
        exactly the tap (p, q) of row (i, j).  Taps that are zero everywhere
        are dropped.
        """
        cm, cn = self.sizes[level]
        probes = np.empty((3, 3, cm, cn))
        for a in range(3):
            for b in range(3):
                e = np.zeros((cm, cn))
                e[a::3, b::3] = 1.0
                probes[a, b] = restrict_kr(self.apply(prolongate(e), level))
        i, j = np.arange(cm)[:, None], np.arange(cn)
        planes = {(p, q): probes[(i + p - 1) % 3, (j + q - 1) % 3, i, j]
                  for p in range(3) for q in range(3)}
        return {tap: c for tap, c in planes.items() if c.any()}

    @property
    def levels(self) -> int:
        return len(self.sizes)

    def _checked(self, u, level: int) -> np.ndarray:
        # (int, np.integer), not numbers.Integral, whose isinstance is slow on this hot path
        integral = isinstance(level, (int, np.integer)) and not isinstance(level, bool)
        if not (integral and 1 <= level <= self.levels):
            raise ContractViolation(f"no operator at level {level} of {self.levels}")
        u = np.asarray(u, dtype=float)
        if u.shape != self.sizes[level - 1]:
            raise ContractViolation(
                f"level {level} operator expects shape {self.sizes[level - 1]}, got {u.shape}")
        return u

    def apply(self, u: np.ndarray, level: int) -> np.ndarray:
        """A^l u for the level-l grid."""
        return stencil(self._checked(u, level), self.fields[level - 1], 1)

    @cached_property
    def _coarse_inverse(self) -> np.ndarray:
        """The inverse of the coarsest level's dense matrix, whose column j is
        `apply` of the j-th unit vector of that grid."""
        m, n = self.sizes[-1]
        columns = [self.apply(e, self.levels).ravel() for e in np.eye(m * n).reshape(-1, m, n)]
        return np.linalg.inv(np.stack(columns, axis=1))

    def coarse_solve(self, f: np.ndarray) -> np.ndarray:
        """Exact solve on the coarsest grid; the first call builds the dense inverse."""
        f = self._checked(f, self.levels)
        return (self._coarse_inverse @ f.ravel()).reshape(f.shape)

    def direct_solve(self, f: np.ndarray) -> np.ndarray:
        """Exact solve on the finest grid, the reference solution: the 2-D sine
        transform `_dst2` diagonalizes the level-1 cross, with eigenvalues
        c11 + 2 c01 cos(pi i / (m + 1)) + 2 c10 cos(pi j / (n + 1)) read from its taps."""
        f = self._checked(f, 1)
        (m, n), taps = f.shape, self.fields[0]
        i, j = np.arange(1, m + 1)[:, None] / (m + 1), np.arange(1, n + 1) / (n + 1)
        eig = taps[1, 1] + 2 * taps[0, 1] * np.cos(np.pi * i) + 2 * taps[1, 0] * np.cos(np.pi * j)
        return _dst2(_dst2(f) / eig) * (4.0 / ((m + 1) * (n + 1)))


def _dst2(x: np.ndarray) -> np.ndarray:
    """DST-I along both axes, each minus half the imaginary part of the rfft of the odd
    extension (0, x, 0, -reversed x); applied twice it scales by (m + 1)(n + 1) / 4."""
    from numpy.fft import rfft  # numpy imports numpy.fft on first use only
    for _ in range(2):  # the last axis, then (transposed) the first
        odd = np.concatenate([np.pad(x, ((0, 0), (1, 1))), -x[:, ::-1]], axis=1)
        x = -0.5 * rfft(odd).imag[:, 1:x.shape[1] + 1].T
    return x


def _check_omega(omega: float) -> None:
    if not 0.0 < omega < 2.0:
        raise ContractViolation(f"omega must lie in (0, 2), got {omega}")


def smooth(r: np.ndarray, hierarchy: PoissonHierarchy, level: int, omega: float) -> np.ndarray:
    """Damped Jacobi correction omega D^-1 r, D the centre tap of the level's operator."""
    _check_omega(omega)
    return omega * hierarchy._checked(r, level) / hierarchy.fields[level - 1][1, 1]


@dataclass
class MgTrace:
    """Per level, what a fine-to-coarse sweep (`mg0`, `run_smoothing_sweep`) produced."""

    f_levels: list = field(default_factory=list)      # f^l (None where a network forms none)
    u_iterates: list = field(default_factory=list)    # [u^{l,0}, ..., u^{l,nu_l}]

    @property
    def solutions(self):
        """u^{l, nu_l} for every level."""
        return [us[-1] for us in self.u_iterates]


def _as_grid(f) -> np.ndarray:
    f = np.asarray(f, dtype=float)
    if f.ndim != 2:
        raise ContractViolation(f"expected an (m, n) grid, got shape {f.shape}")
    if not np.isfinite(f).all():
        bad = np.argwhere(~np.isfinite(f))
        first = tuple(int(i) for i in bad[0])
        raise ContractViolation(
            f"right-hand side has {len(bad)} non-finite values (first {f[first]} at {first})")
    return f


def _checked_nu(nu, levels: int, minimum: int) -> list:
    """One smoothing count of at least `minimum` per level."""
    nu = list(nu)
    if len(nu) != levels:
        raise ContractViolation(f"nu must have {levels} entries, got {len(nu)}")
    for v in nu:
        _check_count("every nu entry", v, minimum)
    return nu


def mg0(f, hierarchy: PoissonHierarchy, nu, omega: float = 0.8) -> MgTrace:
    """Fine-to-coarse sweep: nu_l smoothings per level of `hierarchy`, then residual restriction.

    Starts every level from a zero guess, whose residual is f_l itself, so the
    first smoothing applies no operator; returns the full iterate history.
    """
    f = hierarchy._checked(_as_grid(f), 1)
    nu = _checked_nu(nu, hierarchy.levels, 0)
    trace = MgTrace()
    f_l = f
    for l in range(1, hierarchy.levels + 1):
        u = np.zeros_like(f_l)
        iterates = [u]
        r = f_l  # A 0 = +0.0, so this equals f_l - A u bitwise
        for step in range(nu[l - 1]):
            if step:
                r = f_l - hierarchy.apply(u, l)
            u = u + smooth(r, hierarchy, l, omega)
            iterates.append(u)
        trace.f_levels.append(f_l)
        trace.u_iterates.append(iterates)
        if l < hierarchy.levels:
            f_l = restrict_kr(f_l - hierarchy.apply(u, l))
    return trace


def backslash_mg(f, hierarchy: PoissonHierarchy, nu, omega: float = 0.8) -> np.ndarray:
    """One backslash cycle: the mg0 sweep with the coarsest level solved exactly
    instead of smoothed, then coarse-to-fine corrections."""
    nu = _checked_nu(nu, hierarchy.levels, 0)
    trace = mg0(f, hierarchy, nu[:-1] + [0], omega)
    u = trace.solutions
    u[-1] = hierarchy.coarse_solve(trace.f_levels[-1])
    for l in range(hierarchy.levels - 1, 0, -1):
        u[l - 1] = u[l - 1] + prolongate(u[l])
    return u[0]


@dataclass
class SolveResult:
    u: np.ndarray
    residual_norms: list
    cycles: int
    converged: bool


def solve_poisson(f, levels: int, nu=None, omega: float = 0.8, cycles: int = 50,
                  rtol: float = 1e-10, hierarchy: PoissonHierarchy | None = None) -> SolveResult:
    """Iterate u <- u + MG(f - A u) until the residual drops by `rtol`.

    The residual that ends one cycle starts the next; the first is f itself.
    """
    f = _as_grid(f)
    _check_count("levels", levels, 1)
    _check_count("cycles", cycles, 1)
    if not (np.isfinite(rtol) and 0.0 <= rtol < 1.0):
        raise ContractViolation(f"rtol must be finite and lie in [0, 1), got {rtol}")
    _check_omega(omega)  # a 1-level solve never smooths
    nu = _checked_nu([2] * levels if nu is None else nu, levels, 1)
    if hierarchy is None:
        hierarchy = PoissonHierarchy(f.shape[0], f.shape[1], levels)
    elif hierarchy.sizes[0] != f.shape or hierarchy.levels != levels:
        # exact depth: the coarse inverse belongs to the hierarchy's own coarsest level
        raise ContractViolation(
            f"hierarchy of {hierarchy.levels} levels on {hierarchy.sizes[0]} does not fit "
            f"{levels} levels on a {f.shape} right-hand side")
    u = np.zeros_like(f)
    f_norm = float(np.linalg.norm(f))
    history = []
    if f_norm == 0.0:
        return SolveResult(u, [0.0], 0, True)
    r = f
    for cycle in range(1, cycles + 1):
        u = u + backslash_mg(r, hierarchy, nu, omega)
        r = f - hierarchy.apply(u, 1)
        res = float(np.linalg.norm(r))
        history.append(res)
        if res <= rtol * f_norm:
            return SolveResult(u, history, cycle, True)
    return SolveResult(u, history, cycles, False)
