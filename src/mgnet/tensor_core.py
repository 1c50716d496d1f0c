"""Dense tensors and the convolution / activation / softmax primitives.

Conventions used throughout the package:

* A tensor is a float64 ``numpy.ndarray`` of shape ``(batch, height, width,
  channels)``: the one layout of the convolution core and the network stack.
  Row index = vertical position, column index = horizontal position, last
  axis = channel.  A single image is a batch of one, ``x[None]``.
* A convolution kernel of half-width ``k`` has weights of shape
  ``(2k+1, 2k+1, out_channels, in_channels)``.  ``weights[k+p, k+q, t, i]``
  multiplies the input sample at vertical offset ``p`` and horizontal offset
  ``q`` from the output position, input channel ``i``, output channel ``t``.
  All other modules reuse this orientation.
* One shifted-slice window core (pad with zeros, one strided view per kernel
  tap through the slices `_taps` caches) serves the convolution, max pooling,
  their adjoints and the multigrid stencils.  The conv forward and grad-input
  run it over blocks of whole images whose per-tap working set stays near
  `_BLOCK_BYTES`, so each tap's GEMM works in L2; the grad-weight reduces
  over every row and runs once over the whole batch.
"""

from __future__ import annotations

import functools
import numbers
from dataclasses import dataclass

import numpy as np

Tensor = np.ndarray

class ContractViolation(ValueError):
    """An operation was called with inputs that break its contract."""


def _check_count(name: str, value, minimum: int) -> None:
    """Reject a count that is not an integer (a bool or a float is not) or is below `minimum`."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < minimum:
        raise ContractViolation(f"{name} must be an integer >= {minimum}, got {value!r}")


@dataclass
class ConvKernel:
    """Multichannel convolution kernel with a per-output-channel bias.

    ``weights`` and ``bias`` may be plain arrays or autodiff parameters;
    only their shapes are inspected here.
    """

    weights: np.ndarray  # (2k+1, 2k+1, out_channels, in_channels)
    bias: np.ndarray     # (out_channels,)

    def __post_init__(self):
        ws = self.weights.shape
        if len(ws) != 4 or ws[0] != ws[1] or ws[0] % 2 != 1:
            raise ContractViolation(f"kernel weights must be (2k+1, 2k+1, out, in), got {ws}")
        if self.bias.shape != (ws[2],):
            raise ContractViolation(f"bias shape {self.bias.shape} does not match {ws[2]} output channels")

    @property
    def k(self) -> int:
        return (self.weights.shape[0] - 1) // 2

    @property
    def out_channels(self) -> int:
        return self.weights.shape[2]

    @property
    def in_channels(self) -> int:
        return self.weights.shape[3]

    @classmethod
    def zeros(cls, k: int, in_channels: int, out_channels: int) -> "ConvKernel":
        n = 2 * k + 1
        return cls(np.zeros((n, n, out_channels, in_channels), dtype=np.float64),
                   np.zeros(out_channels, dtype=np.float64))


# ---------------------------------------------------------------------------
# shifted-slice windows: one padded copy, one strided view per kernel tap
# ---------------------------------------------------------------------------

def _pad(x: np.ndarray, k: int) -> np.ndarray:
    """(b, h, w, c) -> (b, h+2k, w+2k, c) with a zero halo."""
    b, m, n, c = x.shape
    # allocate-and-assign: np.pad's per-call overhead shows on small grids
    xp = np.zeros((b, m + 2 * k, n + 2 * k, c), dtype=x.dtype)
    xp[:, k:k + m, k:k + n] = x
    return xp


def _unpad(g: np.ndarray, k: int) -> np.ndarray:
    """Adjoint of `_pad`: crop the halo."""
    return g[:, k:g.shape[1] - k, k:g.shape[2] - k]


# one tap's working set per block of images in `_conv_forward` and
# `_conv_grad_input`: small enough to stay in one core's L2 (2 MiB on the
# Xeon the benchmark was tuned on) next to the weights
_BLOCK_BYTES = 1 << 20


@functools.lru_cache(maxsize=64)
def _taps(kk: int, stride: int, ho: int, wo: int) -> tuple:
    """(p, q, rows, cols) per tap, where ``xp[:, rows, cols][:, i, j]`` is
    ``xp[:, stride*i+p, stride*j+q]``; made once per shape."""
    return tuple((p, q, slice(p, p + stride * (ho - 1) + 1, stride),
                  slice(q, q + stride * (wo - 1) + 1, stride))
                 for p in range(kk) for q in range(kk))


def _images_per_block(image_bytes: int) -> int:
    """Whole images per block so that a block's working set stays near `_BLOCK_BYTES`."""
    return max(1, _BLOCK_BYTES // max(image_bytes, 1))


def _conv_forward(x: np.ndarray, weights: np.ndarray, bias: np.ndarray,
                  stride: int) -> np.ndarray:
    """Per block of images: pad, add each tap's product into the block's output, add the bias."""
    kk, _, cout, cin = weights.shape
    b, m, n, _ = x.shape
    ho, wo = -(-m // stride), -(-n // stride)
    out = np.zeros((b, ho, wo, cout), dtype=np.result_type(x, weights, bias))
    taps = _taps(kk, stride, ho, wo)
    # per tap: the window copy, the product and the accumulator
    step = _images_per_block(ho * wo * (cin + 2 * cout) * out.itemsize)
    for s in range(0, b, step):
        xp = _pad(x[s:s + step], kk // 2)
        acc = out[s:s + step].reshape(-1, cout)
        for p, q, rows, cols in taps:
            acc += xp[:, rows, cols].reshape(-1, cin) @ weights[p, q].T
        acc += bias
    return out


def _conv_grad_weights(x: np.ndarray, grad_out: np.ndarray, k: int,
                       stride: int) -> np.ndarray:
    """Not blocked: each tap reduces over every row at once."""
    _, ho, wo, cout = grad_out.shape
    kk, cin = 2 * k + 1, x.shape[3]
    g2 = grad_out.reshape(-1, cout)
    gw = np.empty((kk, kk, cout, cin), dtype=np.result_type(x, grad_out))
    xp = _pad(x, k)
    for p, q, rows, cols in _taps(kk, stride, ho, wo):
        gw[p, q] = g2.T @ xp[:, rows, cols].reshape(-1, cin)
    return gw


def _conv_grad_input(grad_out: np.ndarray, weights: np.ndarray, in_shape,
                     stride: int) -> np.ndarray:
    """Per block of images, add each tap's input gradient into its window of a
    padded buffer; then unpad."""
    b, m, n, cin = in_shape
    k = weights.shape[0] // 2
    _, ho, wo, cout = grad_out.shape
    gp = np.zeros((b, m + 2 * k, n + 2 * k, cin), dtype=np.result_type(grad_out, weights))
    taps = _taps(2 * k + 1, stride, ho, wo)
    # per tap: the gradient rows, the product and its window of the buffer
    step = _images_per_block(ho * wo * (cout + 2 * cin) * gp.itemsize)
    for s in range(0, b, step):
        g2 = grad_out[s:s + step].reshape(-1, cout)
        block = gp[s:s + step]
        for p, q, rows, cols in taps:
            block[:, rows, cols] += (g2 @ weights[p, q]).reshape(len(block), ho, wo, cin)
    return _unpad(gp, k)


def _max_forward(x: np.ndarray):
    """Zero-padded 3x3 stride-2 max of (b, h, w, c) and the index of the winning tap.

    The first maximal tap in row-major (p, q) order wins; a NaN always wins.
    """
    b, m, n, c = x.shape
    ho, wo = -(-m // 2), -(-n // 2)
    out = np.full((b, ho, wo, c), -np.inf, dtype=x.dtype)
    tap = np.zeros(out.shape, dtype=np.intp)
    xp = _pad(x, 1)
    for t, (_, _, rows, cols) in enumerate(_taps(3, 2, ho, wo)):
        win = xp[:, rows, cols]
        wins = (win > out) | np.isnan(win)
        np.copyto(out, win, where=wins)
        np.copyto(tap, t, where=wins)
    return out, tap


def _max_grad_input(grad_out: np.ndarray, tap: np.ndarray, in_shape) -> np.ndarray:
    """Route each output gradient to its winning tap; padding winners drop out."""
    b, m, n, c = in_shape
    _, ho, wo, _ = grad_out.shape
    gp = np.zeros((b, m + 2, n + 2, c), dtype=grad_out.dtype)
    for t, (_, _, rows, cols) in enumerate(_taps(3, 2, ho, wo)):
        gp[:, rows, cols] += np.where(tap == t, grad_out, 0.0)
    return _unpad(gp, 1)


def _batch(x) -> np.ndarray:
    """`x` as an array, which must be (batch, h, w, c)."""
    x = np.asarray(x)
    if x.ndim != 4:
        raise ContractViolation(f"expected (batch, h, w, c), got shape {x.shape}")
    return x


def conv2d(input: Tensor, kernel: ConvKernel, stride: int = 1) -> Tensor:
    """Multichannel convolution with stride and zero padding.

    Output channel ``t`` is ``sum_i K[i,t] * input[i] + bias[t]``; the output
    is ``(batch, ceil(h/stride), ceil(w/stride), out_channels)``.
    """
    x = _batch(input)
    if x.size == 0:
        raise ContractViolation("empty input tensor")
    if stride < 1:
        raise ContractViolation(f"stride must be >= 1, got {stride}")
    if x.shape[-1] != kernel.in_channels:
        raise ContractViolation(
            f"input has {x.shape[-1]} channels but kernel expects {kernel.in_channels}")
    return _conv_forward(x, np.asarray(kernel.weights), np.asarray(kernel.bias), stride)


def relu(input: Tensor) -> Tensor:
    """Elementwise max(0, x)."""
    return np.maximum(np.asarray(input), 0.0)


def _shifted_exp(z: np.ndarray):
    """(max, exp(z - max), sum of those) over the last axis: the one
    log-sum-exp, max-shifted for overflow safety."""
    zmax = z.max(axis=-1, keepdims=True)
    e = np.exp(z - zmax)
    return zmax, e, e.sum(axis=-1, keepdims=True)


def softmax(logits) -> np.ndarray:
    """Exponential normalization over the last axis."""
    _, e, total = _shifted_exp(np.asarray(logits, dtype=np.float64))
    return e / total

