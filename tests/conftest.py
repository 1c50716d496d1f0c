"""Shared test helpers: independent brute-force references and test-only ops.

The reference convolution below is a literal transcription of the sliding
window sum with explicit boundary handling, kept loop-based on purpose so it
stays independent of the vectorized implementation it checks.
"""

import numpy as np
import pytest

from mgnet import autodiff as ad
from mgnet.grid_transfer import ProlongationMode, restrict_kr
from mgnet.tensor_core import ConvKernel, PaddingMode


def identity_kernel(channels: int) -> ConvKernel:
    """3x3 centre-tap kernel mapping each channel to itself."""
    return ConvKernel.from_matrix(np.pad([[1.0]], 1), channels)


def mean_all(x):
    """Differentiable scalar mean over every entry, a probe loss for gradient tests."""
    def forward(xd):
        xd = np.asarray(xd)
        return xd.mean(), lambda g: (np.broadcast_to(g / xd.size, xd.shape).copy(),)
    return ad._emit((x,), forward, op="mean_all")


def cifar_file(path, labels, label_bytes=1):
    """Write a CIFAR binary batch, one random-pixel record per label (label bytes repeat it)."""
    rng = np.random.default_rng(0)
    payload = bytearray()
    for label in labels:
        payload.extend(bytes([label]) * label_bytes)
        payload.extend(rng.integers(0, 256, size=3072, dtype=np.uint8).tobytes())
    path.write_bytes(bytes(payload))
    return path


def restriction_matrix(m: int, n: int, mode: ProlongationMode) -> np.ndarray:
    """Dense (ceil(m/2)*ceil(n/2), m*n) matrix of `restrict_kr` on flattened grids."""
    cols = []
    for j in range(m * n):
        e = np.zeros((m, n, 1))
        e.flat[j] = 1.0
        cols.append(restrict_kr(e, mode)[:, :, 0].ravel())
    return np.stack(cols, axis=1)


def reference_conv2d(x, kernel: ConvKernel, stride: int, mode: PaddingMode):
    m, n, cin = x.shape
    weights = np.asarray(kernel.weights)
    bias = np.asarray(kernel.bias)
    k = kernel.k
    h_out, w_out = -(-m // stride), -(-n // stride)
    out = np.zeros((h_out, w_out, kernel.out_channels))

    def fold(d, size):
        if 0 <= d < size:
            return d
        if mode is PaddingMode.ZERO:
            return None
        if mode is PaddingMode.PERIODIC:
            return d % size
        period = 2 * size - 2 if size > 1 else 1
        r = d % period
        return r if r < size else period - r

    for t in range(kernel.out_channels):
        for i in range(h_out):
            for j in range(w_out):
                acc = bias[t]
                for p in range(-k, k + 1):
                    for q in range(-k, k + 1):
                        ii = fold(stride * i + p, m)
                        jj = fold(stride * j + q, n)
                        if ii is None or jj is None:
                            continue
                        for c in range(cin):
                            acc += weights[k + p, k + q, t, c] * x[ii, jj, c]
                out[i, j, t] = acc
    return out


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
