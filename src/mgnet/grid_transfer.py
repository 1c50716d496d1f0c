"""Multilevel grids and the transfer operators between them.

Two grid regimes coexist:

* the nodal chain ``m_l = 2^(s-l+1) + 1`` used by the multigrid solver, where
  prolongation / restriction are exact adjoints of each other, and
* the ceil-halving chain ``m_(l+1) = ceil(m_l / 2)`` used by strided
  convolutions on arbitrary (e.g. 32x32) images.

The fixed 3x3 restriction kernels are applied with zero padding.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .tensor_core import (ContractViolation, ConvKernel, PaddingMode, Tensor,
                          conv2d, _max_forward, _with_batch)


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
AVERAGE_3X3 = np.full((3, 3), 1.0 / 9.0)


@dataclass(frozen=True)
class GridHierarchy:
    """Sequence of grid sizes (m_l, n_l), finest first."""

    sizes: tuple

    def __post_init__(self):
        if not self.sizes:
            raise ContractViolation("hierarchy needs at least one level")
        for (ma, na), (mb, nb) in zip(self.sizes, self.sizes[1:]):
            if mb >= ma or nb >= na:
                raise ContractViolation(f"sizes must strictly decrease, got {self.sizes}")

    @property
    def levels(self) -> int:
        return len(self.sizes)

    def size(self, level: int):
        """(m_l, n_l) for 1-based level index."""
        return self.sizes[level - 1]

    @classmethod
    def nodal(cls, m: int, n: int, levels: int) -> "GridHierarchy":
        """Odd-size chain m -> (m+1)/2 -> ..., odd at every level (2^s+1 forms)."""
        sizes = []
        cm, cn = m, n
        for _ in range(levels):
            if (cm - 1) % 2 or (cn - 1) % 2 or cm < 3 or cn < 3:
                raise ContractViolation(
                    f"odd nodal chain of depth {levels} does not exist for {m}x{n}: "
                    f"level size {cm}x{cn} is not odd and >= 3")
            sizes.append((cm, cn))
            cm, cn = (cm + 1) // 2, (cn + 1) // 2
        return cls(tuple(sizes))

    @classmethod
    def halving(cls, m: int, n: int, levels: int) -> "GridHierarchy":
        """Ceil-halving chain used by stride-2 convolutions."""
        sizes = []
        cm, cn = m, n
        for _ in range(levels):
            sizes.append((cm, cn))
            cm, cn = -(-cm // 2), -(-cn // 2)
        return cls(tuple(sizes))


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


def pool_average(input: Tensor, stride: int = 2) -> Tensor:
    """3x3 average pooling: convolution with the all-ones/9 kernel, zero padding."""
    x = np.asarray(input, dtype=float)
    channels = x.shape[-1] if x.ndim >= 3 else 1
    kern = ConvKernel.from_matrix(AVERAGE_3X3, channels)
    return conv2d(x, kern, stride=stride, padding=PaddingMode.ZERO)


def pool_max(input: Tensor, k: int = 1, stride: int = 2) -> Tensor:
    """(2k+1)x(2k+1) windowed maximum with stride; out-of-range samples read 0."""
    if stride < 1:
        raise ContractViolation(f"stride must be >= 1, got {stride}")
    x, squeeze = _with_batch(np.asarray(input, dtype=float))
    out, _ = _max_forward(x, k, stride)
    return out[0] if squeeze else out


def interpolate_pi(u: Tensor, variant: str, kernel: ConvKernel | None = None) -> Tensor:
    """Feature transfer to the next-coarser grid (the Pi of the network family).

    pi0: zero tensor of the coarse shape.
    pi1: full stride-2 convolution (kernel maps c_u -> c_u channels).
    pi2: one single-channel stride-2 kernel applied to every channel (group
         convolution with one group per channel).
    """
    x = np.asarray(u, dtype=float)
    xb, squeeze = _with_batch(x)
    b, m, n, c = xb.shape
    if variant == "pi0":
        out = np.zeros((b, -(-m // 2), -(-n // 2), c), dtype=xb.dtype)
        return out[0] if squeeze else out
    if kernel is None:
        raise ContractViolation(f"variant {variant!r} needs a kernel")
    if variant == "pi1":
        if kernel.in_channels != c or kernel.out_channels != c:
            raise ContractViolation(
                f"pi1 kernel must map {c}->{c} channels, got "
                f"{kernel.in_channels}->{kernel.out_channels}")
        return conv2d(x, kernel, stride=2, padding=PaddingMode.ZERO)
    if variant == "pi2":
        if kernel.in_channels != 1 or kernel.out_channels != 1:
            raise ContractViolation("pi2 kernel must be single-channel")
        grouped = ConvKernel.from_matrix(kernel.weights[:, :, 0, 0], c)
        grouped.bias[:] = kernel.bias[0]
        return conv2d(x, grouped, stride=2, padding=PaddingMode.ZERO)
    raise ContractViolation(f"unknown interpolation variant {variant!r}")


def prolongation_matrix(m: int, n: int, mode: ProlongationMode) -> np.ndarray:
    """Dense ((2m-1)(2n-1), m*n) matrix of `prolongate` on flattened grids."""
    cols = []
    for j in range(m * n):
        e = np.zeros((m, n, 1))
        e.flat[j] = 1.0
        cols.append(prolongate(e, mode)[:, :, 0].ravel())
    return np.stack(cols, axis=1)


def restriction_matrix(m: int, n: int, mode: ProlongationMode) -> np.ndarray:
    """Dense (ceil(m/2)*ceil(n/2), m*n) matrix of `restrict_kr` on flattened grids."""
    cols = []
    for j in range(m * n):
        e = np.zeros((m, n, 1))
        e.flat[j] = 1.0
        cols.append(restrict_kr(e, mode)[:, :, 0].ravel())
    return np.stack(cols, axis=1)
