"""Numerical certification of the structural equivalences.

Each verifier runs two independently-implemented computation paths on random
instances and reports the maximum absolute discrepancy between the quantities
the corresponding identity says must coincide.  The identities are exact in
exact arithmetic, so everything here should sit at rounding level (the suite
tolerance is 1e-9).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .classic_models import (classic_cnn_step, iresnet_block, negated,
                             resnet_block, sigma_resnet_step)
from .mgnet_model import MgNetConfig, init_weights, mgnet_forward, run_smoothing_sweep
from .poisson_mg import PoissonHierarchy, SmootherSpec, mg0, smooth
from .tensor_core import ConvKernel, PaddingMode, conv2d, relu

SUITE_TOLERANCE = 1e-9


@dataclass(frozen=True)
class EquivalenceReport:
    theorem_id: str
    max_abs_discrepancy: float
    instances_tested: int
    seed: int

    def passed(self, tolerance: float = SUITE_TOLERANCE) -> bool:
        return self.max_abs_discrepancy < tolerance

    def to_dict(self) -> dict:
        return {"theorem_id": self.theorem_id,
                "max_abs_discrepancy": self.max_abs_discrepancy,
                "instances_tested": self.instances_tested,
                "seed": self.seed,
                "passed": self.passed()}


def _rand_kernel(rng, k, cin, cout, scale=0.5, bias=True) -> ConvKernel:
    kk = 2 * k + 1
    return ConvKernel(scale * rng.standard_normal((kk, kk, cout, cin)),
                      scale * rng.standard_normal(cout) if bias else np.zeros(cout))


class _LinearMgOperators:
    """Multigrid operators packaged for the network sweep skeleton."""

    def __init__(self, hierarchy: PoissonHierarchy, spec: SmootherSpec, pi_kernel):
        self.h = hierarchy
        self.spec = spec
        self.pi_kernel = pi_kernel  # None means the zero interpolation

    def zero_features(self, f1):
        return np.zeros_like(f1)

    def data_needed(self, level: int) -> bool:
        return True

    def data_map(self, level: int, u):
        return self.h.apply(u, level)

    def extract(self, level: int, i: int, r):
        return smooth(r, self.spec)

    def restrict(self, level: int, x):
        return self.h.restrict(x)

    def transfer(self, level: int, u):
        cm, cn = self.h.sizes[level]
        if self.pi_kernel is None:
            return np.zeros((cm, cn))
        return conv2d(u[:, :, None], self.pi_kernel, 2, PaddingMode.ZERO)[:, :, 0]


def verify_mgnet_mg0(size: int = 17, levels: int = 3, nu=(2, 2, 2), omega: float = 0.8,
                     seed: int = 0) -> EquivalenceReport:
    """Certify that the network sweep with multigrid operators reproduces the
    fine-to-coarse multigrid pass for every interpolation choice.

    Checked identities, per level and iteration:
        f~^l = f^l + A^l u~^{l,0}        and        u^{l,i} = u~^{l,i} - u~^{l,0}.
    """
    rng = np.random.default_rng(seed)
    hierarchy = PoissonHierarchy(size, size, levels)
    spec = SmootherSpec(omega, 1)
    f = rng.standard_normal((size, size))
    reference = mg0(f, levels, list(nu), spec, hierarchy)

    worst = 0.0
    instances = 0
    pi_choices = {
        "pi0": None,
        "pi1": _rand_kernel(rng, 1, 1, 1),
        "pi2": _rand_kernel(rng, 1, 1, 1),
    }
    for pi_kernel in pi_choices.values():
        ops = _LinearMgOperators(hierarchy, spec, pi_kernel)
        _, net = run_smoothing_sweep(f, list(nu), ops, "single")
        for l in range(1, levels + 1):
            u0 = net.u_iterates[l - 1][0]
            lifted = reference.f_levels[l - 1] + hierarchy.apply(u0, l)
            worst = max(worst, float(np.abs(net.f_levels[l - 1] - lifted).max()))
            instances += 1
            for i, (u_ref, u_net) in enumerate(zip(reference.u_iterates[l - 1],
                                                   net.u_iterates[l - 1])):
                worst = max(worst, float(np.abs(u_ref - (u_net - u0)).max()))
                instances += 1
    return EquivalenceReport("mg0", worst, instances, seed)


def verify_dual_iresnet(seed: int = 0, levels: int = 3, nu=(3, 3, 3), channels: int = 8,
                        size: int = 8) -> EquivalenceReport:
    """Certify the feature/data duality: with a linear per-level data map,
    the network's feature iterates induce the pre-activation residual chain
        f^{l,i} = f^{l,i-1} - xi_lin o sigma o eta^{l,i} o sigma (f^{l,i-1}),
    where f^{l,i} = f^l - xi(u^{l,i}) (bias absorbed into the affine map).
    """
    rng = np.random.default_rng(seed)
    cfg = MgNetConfig(J=levels, nu=tuple(nu), c_u=channels, c_f=channels,
                      pi_variant="pi1", use_batchnorm=False, in_channels=3,
                      classes=2, smoothing_variant="single")
    weights = init_weights(cfg, seed=seed)
    for name, p in weights.params.items():
        if name.endswith("/bias"):
            p.data = 0.3 * rng.standard_normal(p.data.shape)
    x = rng.standard_normal((size, size, 3))
    _, trace = mgnet_forward(x, cfg, weights)

    worst = 0.0
    instances = 0
    for l in range(1, levels + 1):
        xi = weights.data_map_kernel(l)
        xi_lin = ConvKernel(np.asarray(xi.weights), np.zeros(channels))
        f_l = np.asarray(trace.f_levels[l - 1])
        iterates = [np.asarray(u) for u in trace.u_iterates[l - 1]]
        f_cur = f_l - conv2d(iterates[0], xi, 1, PaddingMode.ZERO)
        for i, u_i in enumerate(iterates):
            if i > 0:
                eta, _ = weights.extract_kernel(l, i)
                f_cur = iresnet_block(f_cur, negated(xi_lin), eta)
            expected = f_l - conv2d(u_i, xi, 1, PaddingMode.ZERO)
            worst = max(worst, float(np.abs(f_cur - expected).max()))
            instances += 1
    return EquivalenceReport("dual", worst, instances, seed)


def verify_resnet_sigma_transform(block_count: int = 4, channels: int = 8,
                                  size: int = 7, seed: int = 0) -> EquivalenceReport:
    """Certify that the post-activation residual chain can be rewritten on the
    pre-activation state g^i = f^{i-1} + xi^i o sigma o eta^i (f^{i-1}):
    g evolves by the transformed step and sigma(g^i) recovers f^i exactly.
    """
    rng = np.random.default_rng(seed)
    kernels = [(_rand_kernel(rng, 1, channels, channels, 0.4),
                _rand_kernel(rng, 1, channels, channels, 0.4))
               for _ in range(block_count)]
    f = rng.standard_normal((size, size, channels))

    worst = 0.0
    instances = 0
    f_chain = f
    g = None
    for i, (xi, eta) in enumerate(kernels, 1):
        f_chain = resnet_block(f_chain, xi, eta)
        if i == 1:
            g = f + conv2d(relu(conv2d(f, eta, 1, PaddingMode.ZERO)), xi, 1,
                           PaddingMode.ZERO)
        else:
            # sigma-ResNet step with the branch sign flipped to match the
            # plus-convention residual block
            g = sigma_resnet_step(g, negated(xi), eta)
        worst = max(worst, float(np.abs(relu(g) - f_chain).max()))
        instances += 1
    return EquivalenceReport("sigma", worst, instances, seed)


def pair_negating_kernel(channels: int) -> ConvKernel:
    """The fixed 1x1 map taking stacked [X, Y] to -(X_k - Y_k) per channel.

    Composed with relu of a [w, -w] stack this recovers -w exactly, because
    relu(w) - relu(-w) = w (their sum would give |w| instead).
    """
    kern = ConvKernel.zeros(0, 2 * channels, channels)
    for t in range(channels):
        kern.weights[0, 0, t, t] = -1.0
        kern.weights[0, 0, t, channels + t] = 1.0
    return kern


def doubled_extractor(chi: ConvKernel) -> ConvKernel:
    """[id, -id] o (chi - id) as one kernel: stacks the centered map and its negation."""
    c = chi.in_channels
    k = chi.k
    centered = np.array(chi.weights, copy=True)
    for t in range(c):
        centered[k, k, t, t] -= 1.0
    weights = np.concatenate([centered, -centered], axis=2)
    bias = np.concatenate([np.asarray(chi.bias), -np.asarray(chi.bias)])
    return ConvKernel(weights, bias)


def verify_cnn_embedding(layers: int = 2, channels: int = 3, size: int = 6,
                         seed: int = 0) -> EquivalenceReport:
    """Certify that a plain CNN chain embeds into the shared-kernel residual
    form with the fixed pair-negating map, for both activation orders, along
    with the kernel identity  xi o sigma o [id, -id] = -id  it rests on.
    """
    rng = np.random.default_rng(seed)
    delta_hat = pair_negating_kernel(channels)
    worst = 0.0
    instances = 0

    # kernel identity on random tensors: the fixed map recombines the two
    # half-rectifications of x into -x exactly
    for _ in range(3):
        x = rng.standard_normal((size, size, channels))
        stacked = np.concatenate([relu(x), relu(-x)], axis=2)
        out = conv2d(stacked, delta_hat, 1, PaddingMode.ZERO)
        worst = max(worst, float(np.abs(out - (-x)).max()))
        instances += 1

    chis = [_rand_kernel(rng, 1, channels, channels, 0.5) for _ in range(layers)]
    extractors = [doubled_extractor(chi) for chi in chis]

    f_plain = rng.standard_normal((size, size, channels))
    f_embed = f_plain
    for chi, eta in zip(chis, extractors):
        f_plain = classic_cnn_step(f_plain, chi, "post")
        f_embed = sigma_resnet_step(f_embed, delta_hat, eta)
        worst = max(worst, float(np.abs(f_plain - f_embed).max()))
        instances += 1

    g_plain = rng.standard_normal((size, size, channels))
    g_embed = g_plain
    for chi, eta in zip(chis, extractors):
        g_plain = classic_cnn_step(g_plain, chi, "pre")
        g_embed = relu(g_embed - conv2d(relu(conv2d(g_embed, eta, 1, PaddingMode.ZERO)),
                                        delta_hat, 1, PaddingMode.ZERO))
        worst = max(worst, float(np.abs(g_plain - g_embed).max()))
        instances += 1
    return EquivalenceReport("embed", worst, instances, seed)


_VERIFIERS = {
    "mg0": verify_mgnet_mg0,
    "dual": verify_dual_iresnet,
    "sigma": verify_resnet_sigma_transform,
    "embed": verify_cnn_embedding,
}

THEOREM_IDS = tuple(_VERIFIERS)


def verify(theorem_id: str, seed: int = 0) -> EquivalenceReport:
    if theorem_id not in _VERIFIERS:
        raise ValueError(f"unknown theorem id {theorem_id!r}; choose from {THEOREM_IDS}")
    return _VERIFIERS[theorem_id](seed=seed)


def verify_all(seed: int = 0) -> list:
    """Run every verifier in order."""
    return [fn(seed=seed) for fn in _VERIFIERS.values()]
