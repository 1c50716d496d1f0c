"""Tape-based reverse-mode differentiation over the package primitives.

Every op here mirrors a plain-numpy primitive and dispatches on its inputs:
with no active tape (or only plain arrays) it just computes the array, so the
same forward code serves evaluation and training.  Under an active `Tape`,
ops touching a `Node` append a record holding the traced inputs and a
vector-Jacobian closure; `backward` consumes the records in reverse.
"""

from __future__ import annotations

import numpy as np

from .tensor_core import (ContractViolation, _batch, _conv_forward, _conv_grad_input,
                          _conv_grad_weights, _conv_input, _max_forward, _max_grad_input,
                          _shifted_exp, softmax)

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
    """Run `forward` on unwrapped inputs; record a Node when tracing applies.

    A plain-array input is recorded as a ``None`` parent: it takes no
    gradient, and the record does not keep it alive until the sweep.
    """
    out, vjp = forward(*(value(i) for i in inputs))
    tape = _active_tape()
    if tape is None or not any(isinstance(i, Node) for i in inputs):
        return out
    node = Node(out, tuple(i if isinstance(i, Node) else None for i in inputs), vjp, op=op)
    tape._append(node)
    return node


def backward(tape: Tape, loss) -> dict:
    """Reverse sweep; returns gradients for every registered parameter.

    Parameters that never influenced the loss get zero gradients.  The sweep
    consumes the tape: each record is popped when reached and, once its
    gradient has passed to its parents, drops its gradient, vjp closure and
    parents, so activations and saved tensors are freed as the sweep goes.
    Of the records, only the loss keeps its gradient.  A second sweep of
    the tape raises.
    """
    if not isinstance(loss, Node):
        raise ContractViolation("loss is not a traced node")
    if np.asarray(loss.data).size != 1:
        raise ContractViolation(f"loss must be scalar, got shape {loss.data.shape}")
    if not tape.records:
        raise ContractViolation(
            "tape has no records: an earlier backward consumed it, or nothing was traced")
    for p in tape.params.values():
        p.grad = None
    loss.grad = np.ones_like(loss.data)
    records = tape.records
    while records:
        node = records.pop()
        if node.grad is not None and node.vjp is not None:
            for parent, g in zip(node.parents, node.vjp(node.grad)):
                if g is None or not isinstance(parent, Node):
                    continue
                parent.grad = g if parent.grad is None else parent.grad + g
        if node is not loss:
            node.grad = None
        node.vjp = None
        node.parents = ()
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
        sa, sb = ad.shape, bd.shape  # the vjp keeps the shapes, not the operands
        return ad + bd, lambda g: (_unbroadcast(g, sa), _unbroadcast(g, sb))
    return _emit((a, b), forward, op="add")


def sub(a, b):
    def forward(ad, bd):
        ad, bd = np.asarray(ad), np.asarray(bd)
        sa, sb = ad.shape, bd.shape
        return ad - bd, lambda g: (_unbroadcast(g, sa), _unbroadcast(-g, sb))
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


def conv2d(x, kernel, stride: int = 1):
    """Differentiable counterpart of tensor_core.conv2d, under its input contract.

    An input that is not a traced node (the images) gets no gradient.  If it
    is also one zero broadcast to every position (all strides 0), it is not
    convolved: the output is the bias, added in `_conv_forward`'s order so the
    values match bitwise, and the weights get a zero gradient.
    """
    traced_input = isinstance(x, Node)

    def forward(xd, wd, bd):
        xd = _conv_input(xd, wd, stride)
        b, m, n, _ = xd.shape
        if not traced_input and not any(xd.strides) and xd.flat[0] == 0:
            out = np.zeros((b, -(-m // stride), -(-n // stride), wd.shape[2]),
                           dtype=np.result_type(xd, wd, bd))
            out += bd
            return out, lambda g: (None, np.zeros_like(wd), g.sum(axis=(0, 1, 2)))
        k = (wd.shape[0] - 1) // 2

        def vjp(g):
            gx = _conv_grad_input(g, wd, xd.shape, stride) if traced_input else None
            return gx, _conv_grad_weights(xd, g, k, stride), g.sum(axis=(0, 1, 2))

        return _conv_forward(xd, wd, bd, stride), vjp

    return _emit((x, kernel.weights, kernel.bias), forward, op="conv2d")


def max_pool(x):
    """3x3 stride-2 windowed max with zero padding; gradient flows to the winning sample."""
    def forward(xd):
        xd = _batch(xd)
        out, tap = _max_forward(xd)
        return out, lambda g: (_max_grad_input(g, tap, xd.shape),)

    return _emit((x,), forward, op="max_pool")


def spatial_mean(x):
    """Average over the spatial axes: (b, h, w, c) -> (b, c)."""
    def forward(xd):
        xd = _batch(xd)
        shape = xd.shape
        denom = shape[1] * shape[2]

        def vjp(g):
            return (np.ascontiguousarray(np.broadcast_to(g[:, None, None, :] / denom, shape)),)

        return xd.mean(axis=(1, 2)), vjp
    return _emit((x,), forward, op="spatial_mean")


def _rows(x) -> np.ndarray:
    """`x` as an array, which must be (batch, features)."""
    x = np.asarray(x)
    if x.ndim != 2:
        raise ContractViolation(f"expected (batch, features), got shape {x.shape}")
    return x


def affine(x, w, b):
    """x @ w + b for a (batch, features) x."""
    def forward(xd, wd, bd):
        xd = _rows(xd)
        return xd @ wd + bd, lambda g: (g @ wd.T, xd.T @ g, g.sum(axis=0))
    return _emit((x, w, b), forward, op="affine")


BN_EPS = 1e-5


def batchnorm(x, gamma, beta):
    """Normalize over all non-channel axes with batch statistics.

    Returns (normalized, batch mean, batch variance); the statistics are
    plain arrays, bitwise equal to numpy's mean and var over those axes.
    """
    stats = []

    def forward(xd, gd, bd):
        xd = np.asarray(xd)
        axes = tuple(range(xd.ndim - 1))
        count = xd.size // xd.shape[-1]
        mu = xd.mean(axis=axes)
        xhat = xd - mu
        var = (xhat * xhat).sum(axis=axes) / count  # np.var's own order of operations
        inv = 1.0 / np.sqrt(var + BN_EPS)
        xhat *= inv
        out = gd * xhat + bd
        stats.extend((mu, var))

        def vjp(g):
            dx = g * gd
            tmp = g * xhat
            ggamma = tmp.sum(axis=axes)
            s1 = dx.sum(axis=axes)
            np.multiply(dx, xhat, out=tmp)
            s2 = tmp.sum(axis=axes)
            # inv * (dxhat - s1 / count - xhat * s2 / count), in place
            dx -= s1 / count
            np.multiply(xhat, s2, out=tmp)
            tmp /= count
            dx -= tmp
            dx *= inv
            return dx, ggamma, g.sum(axis=axes)

        return out, vjp

    out = _emit((x, gamma, beta), forward, op="batchnorm")
    return (out, *stats)


def batchnorm_inference(x, gamma, beta, running_mean, running_var):
    """Affine normalization with frozen statistics (evaluation mode)."""
    inv = 1.0 / np.sqrt(running_var + BN_EPS)
    return add(mul(sub(x, running_mean), mul(gamma, inv)), beta)


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
    """Mean cross-entropy of softmax(logits) against one-hot labels (fused);
    both are (batch, classes)."""
    def forward(z, y):
        z, y = _rows(z), np.asarray(y)
        zmax, e, total = _shifted_exp(z)
        out = (zmax[:, 0] + np.log(total[:, 0]) - (z * y).sum(axis=1)).mean()
        p = e / total

        def vjp(g):
            return g * (p - y) / z.shape[0], None

        return out, vjp
    return _emit((logits, labels), forward, op="softmax_cross_entropy")
