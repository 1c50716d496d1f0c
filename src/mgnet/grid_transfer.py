"""Transfer operators between the grids of a multilevel chain.

On the nodal chain ``m_l = 2^(s-l+1) + 1`` used by the multigrid solver,
prolongation and restriction are exact adjoints of each other.  The fixed
3x3 restriction kernels are stride-2 convolutions with zero padding, so on
any other grid they map m_l to ``ceil(m_l / 2)`` like the networks' strided
convolutions.
"""

from __future__ import annotations

import enum

import numpy as np

from .tensor_core import ConvKernel, PaddingMode, Tensor, conv2d, _with_batch


class ProlongationMode(enum.Enum):
    BILINEAR = "bilinear"
    LINEAR = "linear"


# fine-to-coarse kernels; each equals the transpose of the matching
# prolongation when grids are nodal chains (verified entrywise in the tests)
RESTRICT_BILINEAR = np.array([[0.25, 0.5, 0.25],
                              [0.50, 1.0, 0.50],
                              [0.25, 0.5, 0.25]])
RESTRICT_LINEAR = np.array([[0.0, 0.5, 0.5],
                            [0.5, 1.0, 0.5],
                            [0.5, 0.5, 0.0]])


def prolongate(coarse: Tensor, mode: ProlongationMode = ProlongationMode.BILINEAR) -> Tensor:
    """Coarse (M, N, c) nodal values -> fine (2M-1, 2N-1, c) interpolant values.

    Coincident points are copied, edge midpoints are two-point averages, cell
    centers are four-point averages (BILINEAR) or anti-diagonal two-point
    averages (LINEAR).
    """
    x, squeeze = _with_batch(np.asarray(coarse, dtype=float))
    b, m, n, c = x.shape
    fine = np.zeros((b, 2 * m - 1, 2 * n - 1, c), dtype=x.dtype)
    fine[:, ::2, ::2] = x
    fine[:, ::2, 1::2] = 0.5 * (x[:, :, :-1] + x[:, :, 1:])
    fine[:, 1::2, ::2] = 0.5 * (x[:, :-1, :] + x[:, 1:, :])
    if mode is ProlongationMode.BILINEAR:
        fine[:, 1::2, 1::2] = 0.25 * (x[:, :-1, :-1] + x[:, 1:, :-1]
                                      + x[:, :-1, 1:] + x[:, 1:, 1:])
    else:
        fine[:, 1::2, 1::2] = 0.5 * (x[:, 1:, :-1] + x[:, :-1, 1:])
    return fine[0] if squeeze else fine


def restriction_kernel(mode: ProlongationMode) -> np.ndarray:
    return (RESTRICT_BILINEAR if mode is ProlongationMode.BILINEAR
            else RESTRICT_LINEAR).copy()


def restrict_kr(fine: Tensor, mode: ProlongationMode = ProlongationMode.BILINEAR) -> Tensor:
    """Fine -> coarse transfer: stride-2 convolution with the fixed 3x3 kernel.

    On (2M-1, 2N-1) grids this is exactly the transpose of `prolongate`.
    """
    x = np.asarray(fine, dtype=float)
    channels = x.shape[-1] if x.ndim >= 3 else 1
    kern = ConvKernel.from_matrix(restriction_kernel(mode), channels)
    return conv2d(x, kern, stride=2, padding=PaddingMode.ZERO)


def prolongation_matrix(m: int, n: int, mode: ProlongationMode) -> np.ndarray:
    """Dense ((2m-1)(2n-1), m*n) matrix of `prolongate` on flattened grids."""
    cols = []
    for j in range(m * n):
        e = np.zeros((m, n, 1))
        e.flat[j] = 1.0
        cols.append(prolongate(e, mode)[:, :, 0].ravel())
    return np.stack(cols, axis=1)
