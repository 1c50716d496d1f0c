"""The MgNet model family.

The forward pass is one residual-correction sweep over a chain of grids:
per level, ``nu_l`` feature-extraction steps ``u <- u + B(f - A(u))``, then
the features are transferred down (``Pi``) and the data re-formed from the
restricted residual.  The sweep skeleton (`run_smoothing_sweep`) is written
against an abstract operator set so the same code runs the trainable network,
its evaluation mode, and linear-operator instantiations used for cross
checking against the multigrid solver.

Weights live in a flat ``name -> Parameter`` map (shapes from
`parameter_shapes`), which is also the checkpoint schema.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, asdict

import numpy as np

from . import autodiff as ad
from .autodiff import Parameter, value
from .poisson_mg import MgTrace
from .tensor_core import ContractViolation, ConvKernel, _check_count, softmax

SMOOTHING_VARIANTS = ("single", "multi", "chebyshev")
EXTRACTOR_STRATEGIES = ("variable", "constant", "scaled")
PI_VARIANTS = ("pi0", "pi1", "pi2")
F_IN_VARIANTS = ("conv_relu", "conv_relu_maxpool")


@dataclass
class MgNetConfig:
    """Hyperparameters of one network; JSON keys mirror these field names."""

    J: int = 5
    nu: tuple = (2, 2, 2, 2, 0)
    c_u: int = 64
    c_f: int = 64
    smoothing_variant: str = "single"
    extractor_strategy: str = "variable"
    pi_variant: str = "pi1"
    use_batchnorm: bool = True
    f_in_variant: str = "conv_relu"
    in_channels: int = 3
    classes: int = 10
    kernel_half_width: int = 1
    shared_data_map: bool = False

    def __post_init__(self):
        for name, minimum in (("J", 1), ("c_u", 1), ("c_f", 1), ("in_channels", 1),
                              ("classes", 2), ("kernel_half_width", 0)):
            _check_count(name, getattr(self, name), minimum)
        for v in self.nu:
            _check_count("each smoothing count in nu", v, 0)
        self.nu = tuple(int(v) for v in self.nu)
        if len(self.nu) != self.J:
            raise ContractViolation(f"nu must have J={self.J} entries, got {len(self.nu)}")
        for name in ("use_batchnorm", "shared_data_map"):
            flag = getattr(self, name)
            if not isinstance(flag, bool):
                raise ContractViolation(f"{name} must be true or false, got {flag!r}")
        for name, val, allowed in (
                ("smoothing_variant", self.smoothing_variant, SMOOTHING_VARIANTS),
                ("extractor_strategy", self.extractor_strategy, EXTRACTOR_STRATEGIES),
                ("pi_variant", self.pi_variant, PI_VARIANTS),
                ("f_in_variant", self.f_in_variant, F_IN_VARIANTS)):
            if val not in allowed:
                raise ContractViolation(f"{name} must be one of {allowed}, got {val!r}")

    def to_dict(self) -> dict:
        d = asdict(self)
        d["nu"] = list(self.nu)
        return d

    @classmethod
    def from_json(cls, path) -> "MgNetConfig":
        with open(path) as fh:
            try:
                return cls(**json.load(fh))
            except (TypeError, ValueError) as exc:  # also bad JSON and bad field values
                raise ContractViolation(f"{path}: not a valid model config: {exc}") from exc

    def head_site(self, level: int) -> bool:
        """Pi at this site is the fixed spatial average feeding the classifier."""
        return level == self.J - 1 and self.nu[self.J - 1] == 0


# ---------------------------------------------------------------------------
# parameter manifest, initialization, counting
# ---------------------------------------------------------------------------

def data_needed(nu, level: int) -> bool:
    """Is f^level ever formed?  True until the trailing zero-smoothing tail."""
    return any(v > 0 for v in nu[level - 1:])


def parameter_shapes(cfg: MgNetConfig) -> dict:
    """Flat name -> shape map of every trainable scalar group."""
    kk = 2 * cfg.kernel_half_width + 1
    shapes: dict[str, tuple] = {}

    def conv(prefix, cin, cout, bn=False):
        shapes[f"{prefix}/weights"] = (kk, kk, cout, cin)
        shapes[f"{prefix}/bias"] = (cout,)
        if bn and cfg.use_batchnorm:
            shapes[f"{prefix}/bn/gamma"] = (cout,)
            shapes[f"{prefix}/bn/beta"] = (cout,)

    conv("theta0", cfg.in_channels, cfg.c_f, bn=True)
    if cfg.shared_data_map:
        conv("shared/data_map", cfg.c_u, cfg.c_f)
    for l in range(1, cfg.J + 1):
        if not data_needed(cfg.nu, l):
            break
        if not cfg.shared_data_map:
            conv(f"level{l}/data_map", cfg.c_u, cfg.c_f)
        n_l = cfg.nu[l - 1]
        if n_l > 0:
            if cfg.extractor_strategy == "variable":
                for i in range(1, n_l + 1):
                    conv(f"level{l}/extract{i}", cfg.c_f, cfg.c_u, bn=True)
            else:
                conv(f"level{l}/extract", cfg.c_f, cfg.c_u, bn=True)
                if cfg.extractor_strategy == "scaled":
                    shapes[f"level{l}/scale"] = (n_l,)
            if cfg.smoothing_variant == "multi":
                for i in range(1, n_l + 1):
                    shapes[f"level{l}/step{i}/alpha"] = (i,)
            elif cfg.smoothing_variant == "chebyshev":
                for i in range(2, n_l + 1):
                    shapes[f"level{l}/step{i}/omega"] = ()
    for l in range(1, cfg.J):
        if data_needed(cfg.nu, l + 1):
            conv(f"level{l}/restrict", cfg.c_f, cfg.c_f)
        if not cfg.head_site(l):
            if cfg.pi_variant == "pi1":
                conv(f"level{l}/pi", cfg.c_u, cfg.c_u)
            elif cfg.pi_variant == "pi2":
                conv(f"level{l}/pi", 1, 1)
    shapes["head/weights"] = (cfg.c_u, cfg.classes)
    shapes["head/bias"] = (cfg.classes,)
    return shapes


def count_params(cfg: MgNetConfig) -> int:
    """Exact number of trainable scalars for a configuration."""
    return sum(math.prod(s) for s in parameter_shapes(cfg).values())


@dataclass
class MgNetWeights:
    """Trainable parameters plus batchnorm running buffers for one config."""

    cfg: MgNetConfig
    params: dict = field(default_factory=dict)     # name -> Parameter
    buffers: dict = field(default_factory=dict)    # name -> plain ndarray

    def kernel(self, prefix: str) -> ConvKernel:
        return ConvKernel(self.params[f"{prefix}/weights"], self.params[f"{prefix}/bias"])

    def data_map_kernel(self, level: int) -> ConvKernel:
        if self.cfg.shared_data_map:
            return self.kernel("shared/data_map")
        return self.kernel(f"level{level}/data_map")

    def extract_kernel(self, level: int, i: int):
        if self.cfg.extractor_strategy == "variable":
            return self.kernel(f"level{level}/extract{i}"), f"level{level}/extract{i}"
        return self.kernel(f"level{level}/extract"), f"level{level}/extract"

    def state_dict(self) -> dict:
        """Every parameter and buffer as plain arrays (checkpoint payload)."""
        out = {name: np.asarray(p.data) for name, p in self.params.items()}
        out.update({name: np.asarray(v) for name, v in self.buffers.items()})
        return out

    def load_state_dict(self, state: dict) -> None:
        """Replace every parameter and buffer; `state` must name exactly these
        tensors, each in its current shape.  Nothing changes when it does not."""
        current = {name: p.data for name, p in self.params.items()} | self.buffers
        missing = [name for name in current if name not in state]
        extra = [name for name in state if name not in current]
        if missing or extra:
            raise ContractViolation(
                f"checkpoint does not match the model: missing {missing}, extra {extra}")
        for name, arr in current.items():
            if np.shape(state[name]) != arr.shape:
                raise ContractViolation(
                    f"{name!r}: checkpoint shape {np.shape(state[name])} != {arr.shape}")
        for name, p in self.params.items():
            p.data = np.array(state[name], dtype=p.data.dtype)
        for name, buf in self.buffers.items():
            self.buffers[name] = np.array(state[name], dtype=buf.dtype)


def _conv_init(rng, name, shape):
    # gain 2 ahead of a rectifier, gain 1 for the activation-free linear maps
    # (data_map / restrict / pi), which would otherwise double variance per level
    fan_in = shape[0] * shape[1] * shape[3]
    gain = 2.0 if ("extract" in name or name.startswith("theta0")) else 1.0
    return rng.normal(0.0, np.sqrt(gain / fan_in), size=shape)


def init_weights(cfg: MgNetConfig, seed: int = 0) -> MgNetWeights:
    """Gaussian fan-in initialization for convolutions, zero biases."""
    rng = np.random.default_rng(seed)
    params: dict[str, Parameter] = {}
    buffers: dict[str, np.ndarray] = {}
    for name, shape in parameter_shapes(cfg).items():
        if name.endswith("/weights") and len(shape) == 4:
            data = _conv_init(rng, name, shape)
        elif name == "head/weights":
            # near-uniform predictions at the start: initial loss ~ log(classes)
            data = rng.normal(0.0, 0.01, size=shape)
        elif name.endswith("/bn/gamma"):
            data = np.ones(shape)
        elif name.endswith("/scale"):
            data = np.ones(shape)
        elif name.endswith("/omega"):
            data = np.ones(shape)
        else:
            data = np.zeros(shape)
        params[name] = Parameter(name, data)
        if name.endswith("/bn/gamma"):
            site = name[:-len("/gamma")]
            buffers[f"{site}/running_mean"] = np.zeros(shape)
            buffers[f"{site}/running_var"] = np.ones(shape)
    return MgNetWeights(cfg, params, buffers)


# ---------------------------------------------------------------------------
# the sweep skeleton
# ---------------------------------------------------------------------------

def _spatial(x) -> tuple:
    """The (h, w) grid of (batch, h, w, c) features; () once averaged to (batch, c)."""
    d = value(x)
    return d.shape[1:3] if d.ndim == 4 else ()


def run_smoothing_sweep(f1, nu, ops, variant: str = "single"):
    """Execute the per-level residual-correction sweep over an operator set.

    `ops` supplies the operators A = data_map(l, u), B = extract(l, i, r),
    R = restrict(l, x) and Pi = transfer(l, u), the start features
    zero_features(f1), and for the semi-iterative variants alpha(l, i) /
    omega(l, i).  Returns (final features, `poisson_mg.MgTrace` of the sweep).

    f^l is formed only while `nu` has smoothing left at level l or below.
    Each iterate's data map A^l u is formed at most once: A^{l+1} u^{l+1,0}
    enters f^{l+1} and is the first step's residual term again, and the last
    step's A^l u is the one the restriction reads.
    """
    if variant not in SMOOTHING_VARIANTS:
        raise ContractViolation(f"unknown smoothing variant {variant!r}")
    levels = len(nu)
    trace = MgTrace()
    f_l = f1
    u = ops.zero_features(f1)
    # A^l u^{l,0}, formed wherever f^l is (and read by level l's first residual)
    mapped_start = ops.data_map(1, u) if data_needed(nu, 1) else None
    for l in range(1, levels + 1):
        if f_l is not None and _spatial(f_l) != _spatial(u):
            raise ContractViolation(
                f"level {l}: data grid {_spatial(f_l)} does not match "
                f"feature grid {_spatial(u)}")
        history = [u]
        mapped = [mapped_start]  # A^l history[j], None until first needed

        def residual(j):
            if mapped[j] is None:
                mapped[j] = ops.data_map(l, history[j])
            return f_l - mapped[j]

        for i in range(1, nu[l - 1] + 1):
            if variant == "multi":
                alpha = ops.alpha(l, i)
                acc = None
                for j, u_j in enumerate(history):
                    term = ad.mul(ad.vector_index(alpha, j),
                                  u_j + ops.extract(l, i, residual(j)))
                    acc = term if acc is None else acc + term
                u = acc
            else:
                step = u + ops.extract(l, i, residual(i - 1))
                if variant == "single" or i == 1:
                    u = step  # chebyshev: omega fixed to 1, the two-back term never exists
                else:
                    omega = ops.omega(l, i)
                    u = ad.mul(omega, step) + ad.mul(ad.sub(1.0, omega), history[-2])
            history.append(u)
            mapped.append(None)
        trace.f_levels.append(f_l)
        trace.u_iterates.append(history)
        if l < levels:
            u_next = ops.transfer(l, u)
            mapped_start = None
            if data_needed(nu, l + 1):
                mapped_start = ops.data_map(l + 1, u_next)
                f_l = ops.restrict(l, residual(len(history) - 1)) + mapped_start
            else:
                f_l = None
            u = u_next
    return u, trace


class KernelOperators:
    """Operator set realized by the trainable kernels of an MgNetWeights."""

    def __init__(self, weights: MgNetWeights, training: bool = False):
        self.w = weights
        self.cfg = weights.cfg
        self.training = training

    def zero_features(self, f1):
        # a read-only broadcast of one zero: the sweep only adds to it, a
        # full-size buffer would be allocated and freed on every forward, and
        # `ad.conv2d` maps it to its bias without convolving
        d = value(f1)
        return np.broadcast_to(np.zeros((), dtype=d.dtype), d.shape[:-1] + (self.cfg.c_u,))

    def apply_bn(self, site: str, x):
        if not self.cfg.use_batchnorm:
            return x
        gamma = self.w.params[f"{site}/bn/gamma"]
        beta = self.w.params[f"{site}/bn/beta"]
        mean_key = f"{site}/bn/running_mean"
        var_key = f"{site}/bn/running_var"
        if self.training:
            out, batch_mean, batch_var = ad.batchnorm(x, gamma, beta)
            momentum = 0.1
            self.w.buffers[mean_key] = ((1 - momentum) * self.w.buffers[mean_key]
                                        + momentum * batch_mean)
            self.w.buffers[var_key] = ((1 - momentum) * self.w.buffers[var_key]
                                       + momentum * batch_var)
            return out
        return ad.batchnorm_inference(x, gamma, beta,
                                      self.w.buffers[mean_key], self.w.buffers[var_key])

    def data_map(self, level: int, u):
        return ad.conv2d(u, self.w.data_map_kernel(level), 1)

    def extract(self, level: int, i: int, r):
        kern, site = self.w.extract_kernel(level, i)
        h = ad.relu(r)
        h = ad.conv2d(h, kern, 1)
        h = self.apply_bn(site, h)
        h = ad.relu(h)
        if self.cfg.extractor_strategy == "scaled":
            h = ad.mul(ad.vector_index(self.w.params[f"level{level}/scale"], i - 1), h)
        return h

    def restrict(self, level: int, x):
        return ad.conv2d(x, self.w.kernel(f"level{level}/restrict"), 2)

    def transfer(self, level: int, u):
        cfg = self.cfg
        if cfg.head_site(level):
            return ad.spatial_mean(u)
        if cfg.pi_variant == "pi0":
            return self.zero_features(value(u)[:, ::2, ::2])  # zeros on the coarse grid
        kern = self.w.kernel(f"level{level}/pi")
        if cfg.pi_variant == "pi2":
            # expand the single trainable channel to a grouped kernel:
            # grouped[p, q, t, i] = single[p, q] when t == i, else 0
            eye = np.zeros((1, 1, cfg.c_u, cfg.c_u))
            eye[0, 0, np.arange(cfg.c_u), np.arange(cfg.c_u)] = 1.0
            grouped_w = ad.mul(kern.weights, eye)
            grouped_b = ad.mul(kern.bias, np.ones(cfg.c_u))
            kern = ConvKernel(grouped_w, grouped_b)
        return ad.conv2d(u, kern, 2)

    def alpha(self, level: int, i: int):
        return ad.softmax_vector(self.w.params[f"level{level}/step{i}/alpha"])

    def omega(self, level: int, i: int):
        return self.w.params[f"level{level}/step{i}/omega"]


def f_in(f, variant: str, theta0: ConvKernel, bn):
    """Initial data transform: conv, `bn`, relu, optionally stride-2 max pool."""
    h = ad.conv2d(f, theta0, 1)
    h = ad.relu(bn(h))
    if variant == "conv_relu_maxpool":
        h = ad.max_pool(h)
    return h


def check_weights(cfg: MgNetConfig, weights: MgNetWeights) -> None:
    """`cfg` must be the config the weights were built for."""
    if cfg != weights.cfg:
        diff = [f"{k}={getattr(cfg, k, None)!r} (weights: {v!r})"
                for k, v in vars(weights.cfg).items() if getattr(cfg, k, None) != v]
        raise ContractViolation(f"config does not match the weights': {', '.join(diff)}")


def mgnet_forward(f, cfg: MgNetConfig, weights: MgNetWeights, training: bool = False):
    """Forward sweep of the model `weights.cfg` (`cfg` must equal it); returns (u^J, trace)."""
    check_weights(cfg, weights)
    ops = KernelOperators(weights, training)
    f1 = f_in(f, weights.cfg.f_in_variant, weights.kernel("theta0"),
              bn=lambda x: ops.apply_bn("theta0", x))
    return run_smoothing_sweep(f1, weights.cfg.nu, ops, weights.cfg.smoothing_variant)


def logits(u_final, weights: MgNetWeights):
    """Spatial average (when still spatial) then the affine head."""
    v = ad.spatial_mean(u_final) if _spatial(u_final) else u_final
    return ad.affine(v, weights.params["head/weights"], weights.params["head/bias"])


def classify(u_final, weights: MgNetWeights) -> np.ndarray:
    """Class probabilities (batch, classes) from final features."""
    return softmax(value(logits(u_final, weights)))

