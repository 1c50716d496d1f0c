"""Dense tensors and the convolution / activation / softmax primitives.

Conventions used throughout the package:

* A tensor is a float64 ``numpy.ndarray`` of shape ``(height, width,
  channels)``.  Row index = vertical position, column index = horizontal
  position, third axis = channel.  Batched code may prepend a leading batch
  axis; every function here accepts ``(h, w, c)`` or ``(batch, h, w, c)``.
* A convolution kernel of half-width ``k`` has weights of shape
  ``(2k+1, 2k+1, out_channels, in_channels)``.  ``weights[k+p, k+q, t, i]``
  multiplies the input sample at vertical offset ``p`` and horizontal offset
  ``q`` from the output position, input channel ``i``, output channel ``t``.
  All other modules reuse this orientation.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

Tensor = np.ndarray

class ContractViolation(ValueError):
    """An operation was called with inputs that break its contract."""


class PaddingMode(enum.Enum):
    ZERO = "zero"
    PERIODIC = "periodic"
    REFLECTED = "reflected"


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

    @classmethod
    def identity(cls, channels: int, k: int = 1) -> "ConvKernel":
        """Center-tap kernel mapping each channel to itself."""
        kern = cls.zeros(k, channels, channels)
        for c in range(channels):
            kern.weights[k, k, c, c] = 1.0
        return kern

    @classmethod
    def from_matrix(cls, matrix, channels: int = 1) -> "ConvKernel":
        """Single 2-D stencil applied to each of `channels` channels independently."""
        m = np.asarray(matrix, dtype=np.float64)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] % 2 != 1:
            raise ContractViolation(f"stencil must be odd square, got {m.shape}")
        k = (m.shape[0] - 1) // 2
        kern = cls.zeros(k, channels, channels)
        for c in range(channels):
            kern.weights[:, :, c, c] = m
        return kern


# ---------------------------------------------------------------------------
# shifted-slice windows: one padded copy, one strided view per kernel tap
# ---------------------------------------------------------------------------

def _pad(x: np.ndarray, k: int, mode: PaddingMode) -> np.ndarray:
    """(b, h, w, c) -> (b, h+2k, w+2k, c); reflection does not repeat the edge sample."""
    b, m, n, c = x.shape
    if mode is PaddingMode.ZERO:
        # allocate-and-assign: np.pad's per-call overhead shows on small grids
        xp = np.zeros((b, m + 2 * k, n + 2 * k, c), dtype=x.dtype)
        xp[:, k:k + m, k:k + n] = x
        return xp
    np_mode = "wrap" if mode is PaddingMode.PERIODIC else "reflect"
    return np.pad(x, ((0, 0), (k, k), (k, k), (0, 0)), mode=np_mode)


def _unpad(g: np.ndarray, k: int, mode: PaddingMode) -> np.ndarray:
    """Adjoint of `_pad`: crop the halo, folding it back onto the samples it copies."""
    m, n = g.shape[1] - 2 * k, g.shape[2] - 2 * k
    if mode is PaddingMode.ZERO:
        return g[:, k:k + m, k:k + n]
    # source sample of every padded row / column, so `_pad` alone defines the modes
    rows = _pad(np.arange(m).reshape(1, m, 1, 1), k, mode)[0, :, k, 0]
    cols = _pad(np.arange(n).reshape(1, n, 1, 1), k, mode)[0, :, k, 0]
    out = g[:, k:k + m].copy()
    for i in (*range(k), *range(k + m, m + 2 * k)):
        out[:, rows[i]] += g[:, i]
    g, out = out, out[:, :, k:k + n].copy()
    for j in (*range(k), *range(k + n, n + 2 * k)):
        out[:, :, cols[j]] += g[:, :, j]
    return out


def _windows(xp: np.ndarray, kk: int, stride: int, ho: int, wo: int):
    """Yield (p, q, view) per tap: ``view[:, i, j]`` is ``xp[:, stride*i+p, stride*j+q]``."""
    for p in range(kk):
        for q in range(kk):
            yield p, q, xp[:, p:p + stride * (ho - 1) + 1:stride,
                           q:q + stride * (wo - 1) + 1:stride]


def _conv_forward(x: np.ndarray, weights: np.ndarray, bias: np.ndarray, stride: int,
                  mode: PaddingMode) -> np.ndarray:
    kk, _, cout, cin = weights.shape
    b, m, n, _ = x.shape
    ho, wo = -(-m // stride), -(-n // stride)
    out = np.zeros((b * ho * wo, cout), dtype=np.result_type(x, weights, bias))
    for p, q, win in _windows(_pad(x, kk // 2, mode), kk, stride, ho, wo):
        out += win.reshape(-1, cin) @ weights[p, q].T
    out += bias
    return out.reshape(b, ho, wo, cout)


def _conv_grad_weights(x: np.ndarray, grad_out: np.ndarray, k: int, stride: int,
                       mode: PaddingMode) -> np.ndarray:
    _, ho, wo, cout = grad_out.shape
    kk, cin = 2 * k + 1, x.shape[3]
    g2 = grad_out.reshape(-1, cout)
    gw = np.empty((kk, kk, cout, cin), dtype=np.result_type(x, grad_out))
    for p, q, win in _windows(_pad(x, k, mode), kk, stride, ho, wo):
        gw[p, q] = g2.T @ win.reshape(-1, cin)
    return gw


def _conv_grad_input(grad_out: np.ndarray, weights: np.ndarray, in_shape, stride: int,
                     mode: PaddingMode) -> np.ndarray:
    """Add each tap's input gradient into its window of a padded buffer, then unpad."""
    b, m, n, cin = in_shape
    k = weights.shape[0] // 2
    _, ho, wo, cout = grad_out.shape
    g2 = grad_out.reshape(-1, cout)
    gp = np.zeros((b, m + 2 * k, n + 2 * k, cin), dtype=np.result_type(grad_out, weights))
    for p, q, win in _windows(gp, 2 * k + 1, stride, ho, wo):
        win += (g2 @ weights[p, q]).reshape(b, ho, wo, cin)
    return _unpad(gp, k, mode)


def _max_forward(x: np.ndarray, k: int, stride: int):
    """Zero-padded windowed max of (b, h, w, c) and the index of the winning tap.

    The first maximal tap in row-major (p, q) order wins; a NaN always wins.
    """
    b, m, n, c = x.shape
    ho, wo = -(-m // stride), -(-n // stride)
    out = np.full((b, ho, wo, c), -np.inf, dtype=x.dtype)
    tap = np.zeros(out.shape, dtype=np.intp)
    for t, (_, _, win) in enumerate(_windows(_pad(x, k, PaddingMode.ZERO), 2 * k + 1,
                                             stride, ho, wo)):
        wins = (win > out) | np.isnan(win)
        np.copyto(out, win, where=wins)
        np.copyto(tap, t, where=wins)
    return out, tap


def _max_grad_input(grad_out: np.ndarray, tap: np.ndarray, in_shape, k: int,
                    stride: int) -> np.ndarray:
    """Route each output gradient to its winning tap; padding winners drop out."""
    b, m, n, c = in_shape
    _, ho, wo, _ = grad_out.shape
    gp = np.zeros((b, m + 2 * k, n + 2 * k, c), dtype=grad_out.dtype)
    for t, (_, _, win) in enumerate(_windows(gp, 2 * k + 1, stride, ho, wo)):
        win += np.where(tap == t, grad_out, 0.0)
    return _unpad(gp, k, PaddingMode.ZERO)


def _with_batch(x: np.ndarray):
    if x.ndim == 3:
        return x[None], True
    if x.ndim == 4:
        return x, False
    raise ContractViolation(f"expected (h, w, c) or (batch, h, w, c), got shape {x.shape}")


def conv2d(input: Tensor, kernel: ConvKernel, stride: int = 1,
           padding: PaddingMode = PaddingMode.ZERO) -> Tensor:
    """Multichannel convolution with stride and the three padding modes.

    Output channel ``t`` is ``sum_i K[i,t] * input[i] + bias[t]``; the output
    is ``ceil(h/stride) x ceil(w/stride) x out_channels``.
    """
    x, squeeze = _with_batch(np.asarray(input))
    if x.size == 0:
        raise ContractViolation("empty input tensor")
    if stride < 1:
        raise ContractViolation(f"stride must be >= 1, got {stride}")
    if x.shape[-1] != kernel.in_channels:
        raise ContractViolation(
            f"input has {x.shape[-1]} channels but kernel expects {kernel.in_channels}")
    out = _conv_forward(x, np.asarray(kernel.weights), np.asarray(kernel.bias),
                        stride, padding)
    return out[0] if squeeze else out


def relu(input: Tensor) -> Tensor:
    """Elementwise max(0, x)."""
    return np.maximum(np.asarray(input), 0.0)


def softmax(logits) -> np.ndarray:
    """Exponential normalization over the last axis, max-shifted for overflow safety."""
    z = np.asarray(logits, dtype=np.float64)
    shifted = z - z.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)

