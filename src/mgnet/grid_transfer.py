"""Transfer operators between the grids of a multilevel chain.

Prolongation is linear nodal interpolation; restriction is the stride-2
convolution with one fixed 3x3 kernel and zero padding.  On the nodal chain
``m_l = 2^(s-l+1) + 1`` used by the multigrid solver the two are exact
adjoints of each other; on any other grid restriction maps m_l to
``ceil(m_l / 2)`` like the networks' strided convolutions.
"""

from __future__ import annotations

import numpy as np

from .tensor_core import ConvKernel, conv2d

# fine-to-coarse kernel; equals the transpose of `prolongate` when grids are
# nodal chains (verified entrywise in the tests)
RESTRICT_LINEAR = np.array([[0.0, 0.5, 0.5],
                            [0.5, 1.0, 0.5],
                            [0.5, 0.5, 0.0]])


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
    """Fine (m, n) -> coarse (ceil(m/2), ceil(n/2)): stride-2 convolution
    with `RESTRICT_LINEAR`.

    On (2M-1, 2N-1) grids this is exactly the transpose of `prolongate`.
    """
    kern = ConvKernel(RESTRICT_LINEAR[:, :, None, None], np.zeros(1))
    return conv2d(np.asarray(fine, dtype=float)[None, :, :, None], kern, stride=2)[0, :, :, 0]


def prolongation_matrix(m: int, n: int) -> np.ndarray:
    """Dense ((2m-1)(2n-1), m*n) matrix of `prolongate` on flattened grids."""
    cols = []
    for j in range(m * n):
        e = np.zeros((m, n))
        e.flat[j] = 1.0
        cols.append(prolongate(e).ravel())
    return np.stack(cols, axis=1)
