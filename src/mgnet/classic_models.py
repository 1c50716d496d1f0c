"""Single-grid iterative forms of the classic CNN families.

Each step function is the displayed composition applied verbatim with zero
padding and stride 1; they are the data-space counterparts of the
feature-space residual-correction sweep and are what the equivalence
verifiers run side by side.
"""

from __future__ import annotations

import numpy as np

from .tensor_core import (ContractViolation, ConvKernel, PaddingMode, Tensor,
                          conv2d, relu)


def _conv(f, kern: ConvKernel) -> Tensor:
    return conv2d(f, kern, 1, PaddingMode.ZERO)


def negated(kern: ConvKernel) -> ConvKernel:
    """The affine map x -> -kern(x)."""
    return ConvKernel(-np.asarray(kern.weights), -np.asarray(kern.bias))


def resnet_block(f: Tensor, xi: ConvKernel, eta: ConvKernel) -> Tensor:
    """sigma(f + xi o sigma o eta (f)): the basic post-activation block."""
    return relu(f + _conv(relu(_conv(f, eta)), xi))


def iresnet_block(f: Tensor, xi: ConvKernel, eta: ConvKernel) -> Tensor:
    """f + xi o sigma o eta o sigma (f): identity skip, pre-activation branch."""
    return f + _conv(relu(_conv(relu(f), eta)), xi)


def sigma_resnet_step(f: Tensor, xi: ConvKernel, eta: ConvKernel) -> Tensor:
    """sigma(f) - xi o sigma o eta o sigma (f): the transformed ResNet iteration."""
    return relu(f) - _conv(relu(_conv(relu(f), eta)), xi)


def classic_cnn_step(f: Tensor, chi: ConvKernel, order: str = "post") -> Tensor:
    """One plain CNN layer: chi o sigma (order="post") or sigma o chi ("pre")."""
    if order == "post":
        return _conv(relu(f), chi)
    if order == "pre":
        return relu(_conv(f, chi))
    raise ContractViolation(f"order must be 'post' or 'pre', got {order!r}")


# ---------------------------------------------------------------------------
# standard residual-network layouts (parameter manifest only)
# ---------------------------------------------------------------------------

_RESNET_BLOCKS = {18: (2, 2, 2, 2), 34: (3, 4, 6, 3)}
_RESNET_WIDTHS = (64, 128, 256, 512)


def resnet_parameter_shapes(depth: int, classes: int = 10) -> dict:
    """Name -> shape of every trainable tensor in the standard layout.

    Stem 7x7 convolution, four stages of basic two-convolution blocks with
    1x1 projections at width changes, batchnorm after every convolution
    (convolutions carry no bias), affine classifier head.
    """
    if depth not in _RESNET_BLOCKS:
        raise ContractViolation(f"supported depths: {sorted(_RESNET_BLOCKS)}, got {depth}")
    shapes: dict[str, tuple] = {}

    def bn(prefix, c):
        shapes[f"{prefix}/bn/gamma"] = (c,)
        shapes[f"{prefix}/bn/beta"] = (c,)

    shapes["stem/weights"] = (7, 7, 64, 3)
    bn("stem", 64)
    c_in = 64
    for stage, (c_out, blocks) in enumerate(zip(_RESNET_WIDTHS, _RESNET_BLOCKS[depth]), 1):
        for b in range(1, blocks + 1):
            p = f"stage{stage}/block{b}"
            shapes[f"{p}/conv1/weights"] = (3, 3, c_out, c_in)
            bn(f"{p}/conv1", c_out)
            shapes[f"{p}/conv2/weights"] = (3, 3, c_out, c_out)
            bn(f"{p}/conv2", c_out)
            if c_in != c_out:
                shapes[f"{p}/down/weights"] = (1, 1, c_out, c_in)
                bn(f"{p}/down", c_out)
            c_in = c_out
    shapes["head/weights"] = (512, classes)
    shapes["head/bias"] = (classes,)
    return shapes


def resnet_param_count(depth: int, classes: int = 10) -> int:
    return int(sum(int(np.prod(s)) for s in resnet_parameter_shapes(depth, classes).values()))
