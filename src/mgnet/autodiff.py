"""Tape-based reverse-mode differentiation over the package primitives.

Every op here mirrors a plain-numpy primitive and dispatches on its inputs:
with no active tape (or only plain arrays) it just computes the array, so the
same forward code serves evaluation and training.  Under an active `Tape`,
ops touching a `Node` append a record holding the inputs and a
vector-Jacobian closure; `backward` walks the records in reverse.
"""

from __future__ import annotations

import numpy as np

from .tensor_core import (ContractViolation, _conv_forward, _conv_grad_input,
                          _conv_grad_weights, _max_forward, _max_grad_input, softmax)

_TAPE_STACK: list = []


def _active_tape():
    return _TAPE_STACK[-1] if _TAPE_STACK else None


class Node:
    """One recorded value: data plus how it was computed."""

    __slots__ = ("data", "grad", "parents", "vjp", "op")
    __array_ufunc__ = None  # keep numpy from consuming Node operands

    def __init__(self, data, parents=(), vjp=None, op="leaf"):
        self.data = np.asarray(data)
        self.grad = None
        self.parents = parents
        self.vjp = vjp
        self.op = op

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    def __array__(self, dtype=None):
        # lets plain-numpy code consume recorded values; gradients do not
        # flow through such reads
        return self.data if dtype is None else self.data.astype(dtype)

    def __repr__(self):
        return f"Node(op={self.op!r}, shape={self.data.shape})"

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __neg__(self):
        return mul(self, -1.0)


class Parameter(Node):
    """Named trainable leaf; registered on a tape when it first participates."""

    __slots__ = ("name",)

    def __init__(self, name: str, data):
        super().__init__(np.array(data, dtype=float))
        self.name = name

    def __repr__(self):
        return f"Parameter({self.name!r}, shape={self.data.shape})"


class Tape:
    """Ordered record of primitive applications plus the parameter registry."""

    def __init__(self):
        self.records: list[Node] = []
        self.params: dict[str, Parameter] = {}

    def __enter__(self):
        _TAPE_STACK.append(self)
        return self

    def __exit__(self, *exc):
        _TAPE_STACK.pop()
        return False

    def _append(self, node: Node):
        self.records.append(node)
        for p in node.parents:
            if isinstance(p, Parameter):
                self.params.setdefault(p.name, p)


def value(x):
    """Unwrap a Node (or return a plain value unchanged)."""
    return x.data if isinstance(x, Node) else x


def _emit(inputs, forward, op="op"):
    """Run `forward` on unwrapped inputs; record a Node when tracing applies."""
    out, vjp = forward(*(value(i) for i in inputs))
    tape = _active_tape()
    if tape is None or not any(isinstance(i, Node) for i in inputs):
        return out
    node = Node(out, tuple(inputs), vjp, op=op)
    tape._append(node)
    return node


def backward(tape: Tape, loss) -> dict:
    """Reverse sweep; returns gradients for every registered parameter.

    Parameters that never influenced the loss get zero gradients.
    """
    if not isinstance(loss, Node):
        raise ContractViolation("loss is not a traced node")
    if np.asarray(loss.data).size != 1:
        raise ContractViolation(f"loss must be scalar, got shape {loss.data.shape}")
    for node in tape.records:
        node.grad = None
    for p in tape.params.values():
        p.grad = None
    loss.grad = np.ones_like(loss.data)
    for node in reversed(tape.records):
        if node.grad is None or node.vjp is None:
            continue
        for parent, g in zip(node.parents, node.vjp(node.grad)):
            if g is None or not isinstance(parent, Node):
                continue
            parent.grad = g if parent.grad is None else parent.grad + g
    return {name: (p.grad if p.grad is not None else np.zeros_like(p.data))
            for name, p in tape.params.items()}


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    """Reduce a gradient back to `shape` after numpy broadcasting."""
    g = np.asarray(g)
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, s in enumerate(shape):
        if s == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g.reshape(shape)


def add(a, b):
    def forward(ad, bd):
        ad, bd = np.asarray(ad), np.asarray(bd)
        out = ad + bd
        return out, lambda g: (_unbroadcast(g, ad.shape), _unbroadcast(g, bd.shape))
    return _emit((a, b), forward, op="add")


def sub(a, b):
    def forward(ad, bd):
        ad, bd = np.asarray(ad), np.asarray(bd)
        out = ad - bd
        return out, lambda g: (_unbroadcast(g, ad.shape), _unbroadcast(-g, bd.shape))
    return _emit((a, b), forward, op="sub")


def mul(a, b):
    def forward(ad, bd):
        ad, bd = np.asarray(ad), np.asarray(bd)
        out = ad * bd
        return out, lambda g: (_unbroadcast(g * bd, ad.shape),
                               _unbroadcast(g * ad, bd.shape))
    return _emit((a, b), forward, op="mul")


def relu(x):
    def forward(xd):
        xd = np.asarray(xd)
        return np.maximum(xd, 0.0), lambda g: (g * (xd > 0),)
    return _emit((x,), forward, op="relu")


def conv2d(x, kernel, stride: int = 1, padding=None):
    """Differentiable counterpart of tensor_core.conv2d; accepts a batch axis."""
    from .tensor_core import PaddingMode
    if stride < 1:
        raise ContractViolation(f"stride must be >= 1, got {stride}")
    mode = PaddingMode.ZERO if padding is None else padding

    def forward(xd, wd, bd):
        xd = np.asarray(xd)
        squeeze = xd.ndim == 3
        xb = xd[None] if squeeze else xd
        if xb.shape[-1] != wd.shape[3]:
            raise ContractViolation(
                f"input has {xb.shape[-1]} channels but kernel expects {wd.shape[3]}")
        out = _conv_forward(xb, wd, bd, stride, mode)
        k = (wd.shape[0] - 1) // 2

        def vjp(g):
            gb = g[None] if squeeze else g
            gx = _conv_grad_input(gb, wd, xb.shape, stride, mode)
            gw = _conv_grad_weights(xb, gb, k, stride, mode)
            gbias = gb.sum(axis=(0, 1, 2))
            return (gx[0] if squeeze else gx), gw, gbias

        return (out[0] if squeeze else out), vjp

    return _emit((x, kernel.weights, kernel.bias), forward, op="conv2d")


def max_pool(x, k: int = 1, stride: int = 2):
    """Windowed max with zero padding; gradient flows to the winning sample."""
    if stride < 1:
        raise ContractViolation(f"stride must be >= 1, got {stride}")

    def forward(xd):
        xd = np.asarray(xd)
        squeeze = xd.ndim == 3
        xb = xd[None] if squeeze else xd
        out, tap = _max_forward(xb, k, stride)

        def vjp(g):
            gx = _max_grad_input(g[None] if squeeze else g, tap, xb.shape, k, stride)
            return (gx[0] if squeeze else gx,)

        return (out[0] if squeeze else out), vjp

    return _emit((x,), forward, op="max_pool")


def mean_all(x):
    """Scalar mean over every entry."""
    def forward(xd):
        xd = np.asarray(xd)
        return xd.mean(), lambda g: (np.broadcast_to(g / xd.size, xd.shape).copy(),)
    return _emit((x,), forward, op="mean_all")


def spatial_mean(x):
    """Average over the spatial axes: (h, w, c) -> (c,) or (b, h, w, c) -> (b, c)."""
    def forward(xd):
        xd = np.asarray(xd)
        axes = (0, 1) if xd.ndim == 3 else (1, 2)
        denom = xd.shape[axes[0]] * xd.shape[axes[1]]
        out = xd.mean(axis=axes)

        def vjp(g):
            if xd.ndim == 3:
                full = np.broadcast_to(g[None, None, :] / denom, xd.shape)
            else:
                full = np.broadcast_to(g[:, None, None, :] / denom, xd.shape)
            return (np.ascontiguousarray(full),)

        return out, vjp
    return _emit((x,), forward, op="spatial_mean")


def affine(x, w, b):
    """x @ w + b for a feature vector or a batch of them."""
    def forward(xd, wd, bd):
        xd = np.asarray(xd)
        out = xd @ wd + bd
        if xd.ndim == 1:
            return out, lambda g: (g @ wd.T, np.outer(xd, g), g)
        return out, lambda g: (g @ wd.T, xd.T @ g, g.sum(axis=0))
    return _emit((x, w, b), forward, op="affine")


def batchnorm(x, gamma, beta, eps: float = 1e-5):
    """Normalize over all non-channel axes with batch statistics."""
    def forward(xd, gd, bd):
        xd = np.asarray(xd)
        axes = tuple(range(xd.ndim - 1))
        mu = xd.mean(axis=axes)
        var = xd.var(axis=axes)
        inv = 1.0 / np.sqrt(var + eps)
        xhat = (xd - mu) * inv
        out = gd * xhat + bd
        count = xd.size // xd.shape[-1]

        def vjp(g):
            dxhat = g * gd
            s1 = dxhat.sum(axis=axes)
            s2 = (dxhat * xhat).sum(axis=axes)
            dx = inv * (dxhat - s1 / count - xhat * s2 / count)
            return dx, (g * xhat).sum(axis=axes), g.sum(axis=axes)

        return out, vjp
    return _emit((x, gamma, beta), forward, op="batchnorm")


def batchnorm_inference(x, gamma, beta, running_mean, running_var, eps: float = 1e-5):
    """Affine normalization with frozen statistics (evaluation mode)."""
    inv = 1.0 / np.sqrt(running_var + eps)
    return add(mul(sub(x, running_mean), mul(gamma, inv)), beta)


def nodal_prolongate(x, mode):
    """Differentiable coarse-to-fine nodal interpolation (adjoint = restriction)."""
    from .grid_transfer import prolongate, restrict_kr

    def forward(xd):
        out = prolongate(np.asarray(xd), mode)
        return out, lambda g: (restrict_kr(g, mode),)
    return _emit((x,), forward, op="nodal_prolongate")


def softmax_vector(v):
    """Differentiable softmax of a small weight vector."""
    def forward(vd):
        p = softmax(vd)
        return p, lambda g: (p * (g - (g * p).sum()),)
    return _emit((v,), forward, op="softmax_vector")


def vector_index(v, i: int):
    """Pick one scalar entry of a vector node."""
    def forward(vd):
        vd = np.asarray(vd)

        def vjp(g):
            gv = np.zeros_like(vd)
            gv[i] = g
            return (gv,)
        return vd[i], vjp
    return _emit((v,), forward, op="vector_index")


def softmax_cross_entropy(logits, labels):
    """Mean cross-entropy of softmax(logits) against one-hot labels (fused)."""
    def forward(zd, yd):
        zd, yd = np.asarray(zd), np.asarray(yd)
        z = zd[None] if zd.ndim == 1 else zd
        y = yd[None] if yd.ndim == 1 else yd
        zmax = z.max(axis=1, keepdims=True)
        e = np.exp(z - zmax)
        total = e.sum(axis=1, keepdims=True)
        out = (zmax[:, 0] + np.log(total[:, 0]) - (z * y).sum(axis=1)).mean()
        p = e / total

        def vjp(g):
            gz = g * (p - y) / z.shape[0]
            return (gz[0] if zd.ndim == 1 else gz), None

        return out, vjp
    return _emit((logits, labels), forward, op="softmax_cross_entropy")
