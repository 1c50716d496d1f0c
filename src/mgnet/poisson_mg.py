"""Discrete 2-D Poisson problem and a geometric multigrid solver.

Every level's operator is a 3x3 stencil field applied with zero padding
(a Dirichlet-type truncation at the boundary, which makes it SPD).  Level 1
is the constant 5-point stencil; coarse fields are the Galerkin triple
products R A P with R = P^T, probed through the transfers themselves.
Smoothing is damped Jacobi expressed as a fixed convolution kernel, so the
whole fine-to-coarse sweep is a chain of convolutions.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .grid_transfer import ProlongationMode, prolongate, restrict_kr
from .tensor_core import (ContractViolation, ConvKernel, PaddingMode, _pad, _windows,
                          conv2d)

POISSON_STENCIL = np.array([[0.0, -1.0, 0.0],
                            [-1.0, 4.0, -1.0],
                            [0.0, -1.0, 0.0]])


@dataclass(frozen=True)
class SmootherSpec:
    """Damped Jacobi smoother; one plain step or two steps fused into a kernel."""

    omega: float = 0.8
    steps: int = 1

    def __post_init__(self):
        if not 0.0 < self.omega < 2.0:
            raise ContractViolation(f"omega must lie in (0, 2), got {self.omega}")
        if self.steps not in (1, 2):
            raise ContractViolation(f"steps must be 1 or 2, got {self.steps}")

    def kernel(self) -> ConvKernel:
        w = self.omega
        if self.steps == 1:
            return ConvKernel.from_matrix(np.array([[w / 4.0]]))
        center = w * (2.0 - w) / 4.0
        cross = w * w / 16.0
        return ConvKernel.from_matrix(np.array([[0.0, cross, 0.0],
                                                [cross, center, cross],
                                                [0.0, cross, 0.0]]))


@dataclass
class StencilOperator:
    """Level-l operator as a variable-coefficient 3x3 stencil field.

    ``coef[i, j, p, q]`` multiplies ``u[i + p - 1, j + q - 1]``; samples
    outside the grid read zero.
    """

    level: int
    coef: np.ndarray   # (m_l, n_l, 3, 3)

    def __post_init__(self):
        # taps that are zero everywhere (the corners of a 5-point field) are skipped
        self._live = self.coef.any(axis=(0, 1))

    @property
    def shape(self) -> tuple:
        return self.coef.shape[:2]

    def apply(self, u: np.ndarray) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        if u.shape != self.shape:
            raise ContractViolation(
                f"level {self.level} operator expects shape {self.shape}, got {u.shape}")
        m, n = self.shape
        out = np.zeros((m, n))
        for p, q, win in _windows(_pad(u[None, :, :, None], 1, PaddingMode.ZERO), 3, 1, m, n):
            if self._live[p, q]:
                out += self.coef[:, :, p, q] * win[0, :, :, 0]
        return out


class PoissonHierarchy:
    """Grids, grid transfers and one Galerkin stencil field per level.

    ``sizes[l - 1]`` is the level-l grid (m_l, n_l) of the nodal chain
    m -> (m+1)/2 -> ..., which needs an odd size >= 3 at every level.
    """

    def __init__(self, m: int, n: int | None = None, levels: int = 2,
                 mode: ProlongationMode = ProlongationMode.LINEAR):
        n = m if n is None else n
        if levels < 1:
            raise ContractViolation(f"hierarchy needs at least one level, got {levels}")
        sizes, cm, cn = [], m, n
        for _ in range(levels):
            if cm < 3 or cn < 3 or cm % 2 == 0 or cn % 2 == 0:
                raise ContractViolation(
                    f"odd nodal chain of depth {levels} does not exist for {m}x{n}: "
                    f"level size {cm}x{cn} is not odd and >= 3")
            sizes.append((cm, cn))
            cm, cn = (cm + 1) // 2, (cn + 1) // 2
        self.sizes = tuple(sizes)
        self.mode = mode
        self._ops = [StencilOperator(1, np.broadcast_to(POISSON_STENCIL, (m, n, 3, 3)))]
        for l in range(1, levels):
            self._ops.append(self._galerkin(l))

    def _galerkin(self, level: int) -> StencilOperator:
        """R A^l P, probed with the 9 colour vectors ``e[a::3, b::3] = 1``.

        A 3x3 field stays 3x3 under Galerkin coarsening with either
        prolongation, and a 3x3 neighbourhood meets each colour once, so the
        probe of the colour of (i + p - 1, j + q - 1), read at (i, j), is
        exactly the tap (p, q) of row (i, j).
        """
        cm, cn = self.sizes[level]
        probes = np.empty((3, 3, cm, cn))
        for a in range(3):
            for b in range(3):
                e = np.zeros((cm, cn))
                e[a::3, b::3] = 1.0
                probes[a, b] = self.restrict(self.apply(self.prolong(e, level), level))
        i = np.arange(cm)[:, None, None, None]
        j = np.arange(cn)[None, :, None, None]
        p, q = np.arange(3)[:, None], np.arange(3)
        return StencilOperator(level + 1, probes[(i + p - 1) % 3, (j + q - 1) % 3, i, j])

    @property
    def levels(self) -> int:
        return len(self.sizes)

    def operator(self, level: int) -> StencilOperator:
        if not 1 <= level <= self.levels:
            raise ContractViolation(f"no operator at level {level} of {self.levels}")
        return self._ops[level - 1]

    def apply(self, u: np.ndarray, level: int) -> np.ndarray:
        """A^l u for the level-l grid."""
        return self.operator(level).apply(u)

    def prolong(self, coarse: np.ndarray, level: int) -> np.ndarray:
        """Transfer level l+1 values to level l by nodal interpolation."""
        return prolongate(coarse[:, :, None], self.mode)[:, :, 0]

    def restrict(self, fine: np.ndarray) -> np.ndarray:
        """Transfer to the next-coarser grid with the fixed 3x3 kernel (= P^T)."""
        return restrict_kr(fine[:, :, None], self.mode)[:, :, 0]

    def direct_solve(self, f: np.ndarray) -> np.ndarray:
        """Dense solve on the finest grid, used as the reference solution.

        The (mn, mn) matrix is assembled from the level-1 field on each call.
        """
        op = self._ops[0]
        m, n = op.shape
        rows = np.arange(m * n).reshape(m, n)
        cols = np.pad(rows, 1, constant_values=-1)[None, :, :, None]
        a = np.zeros((m * n, m * n))
        for p, q, win in _windows(cols, 3, 1, m, n):
            col = win[0, :, :, 0]
            inside = col >= 0
            a[rows[inside], col[inside]] = op.coef[:, :, p, q][inside]
        return np.linalg.solve(a, np.asarray(f, dtype=float).ravel()).reshape(m, n)


def smooth(f: np.ndarray, spec: SmootherSpec) -> np.ndarray:
    """Apply the Jacobi kernel to a residual-style right-hand side."""
    f = np.asarray(f, dtype=float)
    return conv2d(f[:, :, None], spec.kernel(), 1, PaddingMode.ZERO)[:, :, 0]


@dataclass
class MgTrace:
    """Everything the fine-to-coarse sweep produced, per level."""

    f_levels: list = field(default_factory=list)      # f^l
    u_iterates: list = field(default_factory=list)    # [u^{l,0}, ..., u^{l,nu_l}]

    @property
    def solutions(self):
        """u^{l, nu_l} for every level."""
        return [us[-1] for us in self.u_iterates]


def _as_grid(f) -> np.ndarray:
    f = np.asarray(f, dtype=float)
    if f.ndim == 3 and f.shape[2] == 1:
        f = f[:, :, 0]
    if f.ndim != 2:
        raise ContractViolation(f"expected a single-channel grid, got shape {f.shape}")
    return f


def mg0(f, levels: int, nu, spec: SmootherSpec = SmootherSpec(),
        hierarchy: PoissonHierarchy | None = None) -> MgTrace:
    """Fine-to-coarse sweep: nu_l smoothings per level, then residual restriction.

    Starts every level from a zero guess; returns the full iterate history.
    """
    f = _as_grid(f)
    if len(nu) != levels:
        raise ContractViolation(f"nu must have {levels} entries, got {len(nu)}")
    if hierarchy is None:
        hierarchy = PoissonHierarchy(f.shape[0], f.shape[1], levels)
    if hierarchy.sizes[0] != f.shape or hierarchy.levels < levels:
        raise ContractViolation("hierarchy does not match the right-hand side")
    trace = MgTrace()
    f_l = f
    for l in range(1, levels + 1):
        u = np.zeros_like(f_l)
        iterates = [u]
        for _ in range(nu[l - 1]):
            u = u + smooth(f_l - hierarchy.apply(u, l), spec)
            iterates.append(u)
        trace.f_levels.append(f_l)
        trace.u_iterates.append(iterates)
        if l < levels:
            f_l = hierarchy.restrict(f_l - hierarchy.apply(u, l))
    return trace


def backslash_mg(f, levels: int, nu, spec: SmootherSpec = SmootherSpec(),
                 hierarchy: PoissonHierarchy | None = None) -> np.ndarray:
    """One backslash cycle: the mg0 sweep plus coarse-to-fine corrections."""
    f = _as_grid(f)
    if hierarchy is None:
        hierarchy = PoissonHierarchy(f.shape[0], f.shape[1], levels)
    trace = mg0(f, levels, nu, spec, hierarchy)
    u = trace.solutions
    for l in range(levels - 1, 0, -1):
        u[l - 1] = u[l - 1] + hierarchy.prolong(u[l], l)
    return u[0]


@dataclass
class SolveResult:
    u: np.ndarray
    residual_norms: list
    cycles: int
    converged: bool


def solve_poisson(f, levels: int, nu=None, omega: float = 0.8, cycles: int = 50,
                  rtol: float = 1e-10, steps: int = 1,
                  hierarchy: PoissonHierarchy | None = None) -> SolveResult:
    """Iterate u <- u + MG(f - A u) until the residual drops by `rtol`."""
    f = _as_grid(f)
    if cycles < 1:
        raise ContractViolation(f"cycles must be >= 1, got {cycles}")
    nu = [2] * levels if nu is None else list(nu)
    spec = SmootherSpec(omega, steps)
    if hierarchy is None:
        hierarchy = PoissonHierarchy(f.shape[0], f.shape[1], levels)
    u = np.zeros_like(f)
    f_norm = float(np.linalg.norm(f))
    history = []
    if f_norm == 0.0:
        return SolveResult(u, [0.0], 0, True)
    for cycle in range(1, cycles + 1):
        r = f - hierarchy.apply(u, 1)
        u = u + backslash_mg(r, levels, nu, spec, hierarchy)
        res = float(np.linalg.norm(f - hierarchy.apply(u, 1)))
        history.append(res)
        if res <= rtol * f_norm:
            return SolveResult(u, history, cycle, True)
    return SolveResult(u, history, cycles, False)
