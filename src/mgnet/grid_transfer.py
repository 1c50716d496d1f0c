"""Transfer operators between the grids of a multilevel chain, and the 3x3
stencil routine that restriction shares with the multigrid level operators.

Prolongation is linear nodal interpolation.  Restriction is the stride-2,
zero-padded stencil of one fixed 3x3 kernel: the one-channel case of the
networks' strided convolution, run by `stencil` on the ``{(p, q): c}`` map
of the kernel's 7 nonzero taps, as every level operator is at stride 1.  On
the nodal chain ``m_l = 2^(s-l+1) + 1`` used by the multigrid solver the two
transfers are exact adjoints of each other; on any other grid restriction
maps m_l to ``ceil(m_l / 2)`` like the networks' strided convolutions.
"""

from __future__ import annotations

import numpy as np

from .tensor_core import ContractViolation, _pad, _taps

# fine-to-coarse kernel; equals the transpose of `prolongate` when grids are
# nodal chains (verified entrywise in the tests)
RESTRICT_LINEAR = np.array([[0.0, 0.5, 0.5],
                            [0.5, 1.0, 0.5],
                            [0.5, 0.5, 0.0]])
# its nonzero taps (all but the two zero corners) in row-major order
RESTRICT_TAPS = {(p, q): RESTRICT_LINEAR[p, q] for p in range(3) for q in range(3)
                 if RESTRICT_LINEAR[p, q]}


def stencil(grid: np.ndarray, taps: dict, stride: int) -> np.ndarray:
    """Zero-padded 3x3 stencil of an (m, n) grid at `stride`.

    ``taps`` maps each live tap (p, q) to its coefficient c: at output (i, j)
    of the (ceil(m/stride), ceil(n/stride)) result, tap (p, q) reads
    ``grid[stride*i + p - 1, stride*j + q - 1]``, zero outside the grid, and
    ``c`` is a scalar or an array of the output's shape.  The products are
    added in the map's order, starting from +0.0; a tap left out adds nothing.
    """
    m, n = grid.shape
    ho, wo = -(-m // stride), -(-n // stride)
    xp = _pad(grid[None, :, :, None], 1)[0, :, :, 0]
    windows = _taps(3, stride, ho, wo)
    out = np.zeros((ho, wo))
    for (p, q), c in taps.items():
        _, _, rows, cols = windows[3 * p + q]
        out += c * xp[rows, cols]
    return out


def prolongate(coarse: np.ndarray) -> np.ndarray:
    """Coarse (M, N) nodal values -> fine (2M-1, 2N-1) interpolant values.

    Coincident points are copied, edge midpoints are two-point averages and
    cell centers are anti-diagonal two-point averages.
    """
    x = np.asarray(coarse, dtype=float)
    m, n = x.shape
    fine = np.zeros((2 * m - 1, 2 * n - 1))
    fine[::2, ::2] = x
    fine[::2, 1::2] = 0.5 * (x[:, :-1] + x[:, 1:])
    fine[1::2, ::2] = 0.5 * (x[:-1, :] + x[1:, :])
    fine[1::2, 1::2] = 0.5 * (x[1:, :-1] + x[:-1, 1:])
    return fine


def restrict_kr(fine: np.ndarray) -> np.ndarray:
    """Fine (m, n) -> coarse (ceil(m/2), ceil(n/2)): the stride-2 stencil of
    `RESTRICT_LINEAR`, bitwise equal to its one-channel `conv2d` on finite grids.

    On (2M-1, 2N-1) grids this is exactly the transpose of `prolongate`.
    """
    x = np.asarray(fine, dtype=float)
    if x.ndim != 2 or x.size == 0:
        raise ContractViolation(f"expected a non-empty (m, n) grid, got shape {x.shape}")
    return stencil(x, RESTRICT_TAPS, 2)


def prolongation_matrix(m: int, n: int) -> np.ndarray:
    """Dense ((2m-1)(2n-1), m*n) matrix of `prolongate` on flattened grids."""
    cols = []
    for j in range(m * n):
        e = np.zeros((m, n))
        e.flat[j] = 1.0
        cols.append(prolongate(e).ravel())
    return np.stack(cols, axis=1)
