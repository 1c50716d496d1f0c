"""Shared test helpers: independent brute-force references and test-only ops.

The reference convolution below is a literal transcription of the sliding
window sum with explicit zero-padding boundary handling, kept loop-based on
purpose so it stays independent of the vectorized implementation it checks.
"""

import functools

import numpy as np
import pytest

from mgnet import autodiff as ad
from mgnet.grid_transfer import RESTRICT_LINEAR, restrict_kr
from mgnet.mgnet_model import MgNetConfig, init_weights
from mgnet.tensor_core import ConvKernel, conv2d
from mgnet.training import _forward_logits, _one_hot


def from_matrix(matrix, channels: int = 1) -> ConvKernel:
    """Single 2-D stencil applied to each of `channels` channels independently."""
    m = np.asarray(matrix, dtype=np.float64)
    kern = ConvKernel.zeros((m.shape[0] - 1) // 2, channels, channels)
    for c in range(channels):
        kern.weights[:, :, c, c] = m
    return kern


def identity_kernel(channels: int) -> ConvKernel:
    """3x3 centre-tap kernel mapping each channel to itself."""
    return from_matrix(np.pad([[1.0]], 1), channels)


def mean_all(x):
    """Differentiable scalar mean over every entry, a probe loss for gradient tests."""
    def forward(xd):
        xd = np.asarray(xd)
        return xd.mean(), lambda g: (np.broadcast_to(g / xd.size, xd.shape).copy(),)
    return ad._emit((x,), forward, op="mean_all")


def reference_backward(tape, loss) -> dict:
    """The reverse sweep before it consumed its tape: every record stays
    recorded, with its gradient, vjp and parents, after the sweep."""
    for node in tape.records:
        node.grad = None
    for p in tape.params.values():
        p.grad = None
    loss.grad = np.ones_like(loss.data)
    for node in reversed(tape.records):
        if node.grad is None or node.vjp is None:
            continue
        for parent, g in zip(node.parents, node.vjp(node.grad)):
            if g is None or not isinstance(parent, ad.Node):
                continue
            parent.grad = g if parent.grad is None else parent.grad + g
    return {name: (p.grad if p.grad is not None else np.zeros_like(p.data))
            for name, p in tape.params.items()}


def traced_loss(cfg, weights, images, labels):
    """(tape, loss) of one training-mode forward: the cross-entropy of the logits."""
    with ad.Tape() as tape:
        z = _forward_logits(images, weights, training=True)
        loss = ad.softmax_cross_entropy(z, _one_hot(np.asarray(labels), cfg.classes))
    return tape, loss


# a toy model, and changes to its config that each name another model on its
# weights: one with other parameter values, one with parameters they lack
TOY_MODEL = dict(J=3, nu=(2, 2, 2), c_u=4, c_f=4, pi_variant="pi1", in_channels=1, classes=2)
CONFIG_CHANGES = {"nu": dict(nu=(1, 1, 1)),
                  "pi2-multi": dict(pi_variant="pi2", smoothing_variant="multi")}


def mismatched_model(change: dict):
    """(cfg, weights): the toy model's initial weights and its config altered by `change`."""
    return MgNetConfig(**{**TOY_MODEL, **change}), init_weights(MgNetConfig(**TOY_MODEL))


def cifar_file(path, labels, label_bytes=1):
    """Write a CIFAR binary batch, one random-pixel record per label (label bytes repeat it)."""
    rng = np.random.default_rng(0)
    payload = bytearray()
    for label in labels:
        payload.extend(bytes([label]) * label_bytes)
        payload.extend(rng.integers(0, 256, size=3072, dtype=np.uint8).tobytes())
    path.write_bytes(bytes(payload))
    return path


def restriction_matrix(m: int, n: int) -> np.ndarray:
    """Dense (ceil(m/2)*ceil(n/2), m*n) matrix of `restrict_kr` on flattened grids."""
    cols = []
    for j in range(m * n):
        e = np.zeros((m, n))
        e.flat[j] = 1.0
        cols.append(restrict_kr(e).ravel())
    return np.stack(cols, axis=1)


def conv_restrict(fine):
    """Restriction as the network sees it: the one-channel stride-2 `conv2d`
    with `RESTRICT_LINEAR` and a zero bias, all 9 taps."""
    kern = ConvKernel(RESTRICT_LINEAR[:, :, None, None], np.zeros(1))
    return conv2d(np.asarray(fine, dtype=float)[None, :, :, None], kern, stride=2)[0, :, :, 0]


@functools.lru_cache(maxsize=None)
def reference_poisson(m: int, n: int) -> np.ndarray:
    """Dense (mn, mn) 5-point Dirichlet Laplacian on row-major (m, n) grids, the
    Kronecker sum kron(I_m, T_n) + kron(T_m, I_n) with T = tridiag(-1, 2, -1); read-only."""
    def tridiag(k):
        return 2.0 * np.eye(k) - np.eye(k, k=1) - np.eye(k, k=-1)
    a = np.kron(np.eye(m), tridiag(n)) + np.kron(tridiag(m), np.eye(n))
    a.flags.writeable = False
    return a


def reference_conv2d(x, kernel: ConvKernel, stride: int):
    """Zero-padded convolution as the literal sliding-window sum."""
    m, n, cin = x.shape
    weights = np.asarray(kernel.weights)
    bias = np.asarray(kernel.bias)
    k = kernel.k
    h_out, w_out = -(-m // stride), -(-n // stride)
    out = np.zeros((h_out, w_out, kernel.out_channels))

    for t in range(kernel.out_channels):
        for i in range(h_out):
            for j in range(w_out):
                acc = bias[t]
                for p in range(-k, k + 1):
                    for q in range(-k, k + 1):
                        ii, jj = stride * i + p, stride * j + q
                        if not (0 <= ii < m and 0 <= jj < n):
                            continue
                        for c in range(cin):
                            acc += weights[k + p, k + q, t, c] * x[ii, jj, c]
                out[i, j, t] = acc
    return out


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
