"""Span tracing of the mgnet layers, installed at run time from outside.

`Tracer.install` replaces the public entry points of each module with
timing wrappers: the module attribute itself and every other reference a
loaded ``mgnet`` module holds to the same function object (names brought in
with ``from .x import f``, and registries such as the verifier table).  The
package source is not edited.  Spans (name, start, end, parent) are kept in
memory; `per_layer` turns them into the per-layer table when the run ends.

Self time is a span's duration minus the time its direct child spans cover.
Children of one span never overlap because the program is single threaded.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time

import numpy as np

_clock = time.perf_counter

# (module, attribute) pairs wrapped as plain functions; span name is
# "<module>.<attribute>"
FUNCTIONS = [
    ("tensor_core", "conv2d"),
    ("autodiff", "conv2d"),
    ("autodiff", "batchnorm"),
    ("autodiff", "add"),
    ("autodiff", "sub"),
    ("autodiff", "mul"),
    ("autodiff", "relu"),
    ("autodiff", "backward"),
    ("mgnet_model", "mgnet_forward"),
    ("training", "train"),
    ("training", "sgd_momentum_step"),
    ("training", "evaluate"),
    ("grid_transfer", "restrict_kr"),
    ("grid_transfer", "prolongate"),
    ("grid_transfer", "prolongation_matrix"),
    ("poisson_mg", "smooth"),
    ("poisson_mg", "backslash_mg"),
    ("poisson_mg", "solve_poisson"),
    ("equivalence_lab", "verify_mgnet_mg0"),
    ("equivalence_lab", "verify_dual_iresnet"),
    ("equivalence_lab", "verify_resnet_sigma_transform"),
    ("equivalence_lab", "verify_cnn_embedding"),
    ("data_io", "gen_synthetic"),
    ("data_io", "load_cifar10"),
    ("data_io", "save_checkpoint"),
    ("data_io", "load_checkpoint"),
]

# (module, class, method) triples; span name is "<module>.<Class>.<method>"
METHODS = [
    ("mgnet_model", "KernelOperators", "apply_bn"),
    ("poisson_mg", "PoissonHierarchy", "__init__"),
    ("poisson_mg", "PoissonHierarchy", "apply"),
]

ELEMENTWISE = ("add", "sub", "mul", "relu")


def _conv_flops(out_shape, weight_shape) -> int:
    """Multiply-adds x 2 of one forward conv: every output sample reads a
    (2k+1)^2 x c_in window."""
    kk, _, c_out, c_in = weight_shape
    batch_spatial = int(np.prod(out_shape)) // c_out
    return 2 * batch_spatial * kk * kk * c_in * c_out


class Tracer:
    """In-memory span recorder plus the patches that feed it."""

    def __init__(self):
        self.spans: list = []       # [name, start, end, parent index]
        self.active = False
        self.conv_flops = {"fwd": 0, "vjp": 0}
        self.records_per_backward: list = []
        self._stack: list = []
        self._patches: list = []    # (container, key, original, is_dict)

    # -- span bookkeeping -------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, _clock(), 0.0, parent])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = _clock()
        self._stack.pop()

    def _timed(self, name: str, fn, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            idx = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if after is not None:
                after(args, kwargs, result)
            return result
        return wrapper

    # -- installation -----------------------------------------------------

    def _replace_everywhere(self, original, replacement) -> None:
        for mod_name, mod in list(sys.modules.items()):
            if not (mod_name == "mgnet" or mod_name.startswith("mgnet.")):
                continue
            for key, val in list(vars(mod).items()):
                if val is original:
                    self._patches.append((mod, key, original, False))
                    setattr(mod, key, replacement)
                elif isinstance(val, dict):
                    for k, v in list(val.items()):
                        if v is original:
                            self._patches.append((val, k, original, True))
                            val[k] = replacement

    def install(self) -> None:
        import importlib
        import mgnet  # noqa: F401  (loads every submodule)

        for mod_name, attr in FUNCTIONS:
            mod = importlib.import_module(f"mgnet.{mod_name}")
            original = getattr(mod, attr)
            self._replace_everywhere(original, self._wrapper_for(mod_name, attr, original))
        for mod_name, cls_name, meth in METHODS:
            cls = getattr(importlib.import_module(f"mgnet.{mod_name}"), cls_name)
            original = cls.__dict__[meth]
            self._patches.append((cls, meth, original, False))
            setattr(cls, meth, self._timed(f"{mod_name}.{cls_name}.{meth}", original))

    def uninstall(self) -> None:
        for container, key, original, is_dict in reversed(self._patches):
            if is_dict:
                container[key] = original
            else:
                setattr(container, key, original)
        self._patches.clear()

    def _wrapper_for(self, mod_name: str, attr: str, original):
        name = f"{mod_name}.{attr}"
        if name == "autodiff.conv2d":
            return self._timed(name, original, after=self._count_conv_fwd)
        if name == "autodiff.backward":
            return self._traced_backward(original)
        if name == "mgnet_model.mgnet_forward":
            return self._traced_forward(original)
        return self._timed(name, original)

    def _count_conv_fwd(self, args, kwargs, result) -> None:
        from mgnet.autodiff import value
        kernel = args[1] if len(args) > 1 else kwargs["kernel"]
        self.conv_flops["fwd"] += _conv_flops(np.shape(value(result)),
                                              np.shape(value(kernel.weights)))

    def _traced_forward(self, original):
        train = self._timed("mgnet_model.mgnet_forward.train", original)
        evaluate = self._timed("mgnet_model.mgnet_forward.eval", original)

        @functools.wraps(original)
        def wrapper(f, cfg, weights, training=False):
            return (train if training else evaluate)(f, cfg, weights, training)
        return wrapper

    def _traced_backward(self, original):
        """Times each tape record's vjp by op, inside the backward span."""
        tracer = self

        def timed_vjp(node, vjp):
            op = node.op
            name = f"autodiff.vjp.{op}"

            def run(g):
                idx = tracer._open(name)
                try:
                    return vjp(g)
                finally:
                    tracer._close(idx)
                    if op == "conv2d":
                        tracer.conv_flops["vjp"] += 2 * _conv_flops(
                            np.shape(node.data), np.shape(np.asarray(node.parents[1])))
            return run

        @functools.wraps(original)
        def wrapper(tape, loss):
            if not tracer.active:
                return original(tape, loss)
            tracer.records_per_backward.append(len(tape.records))
            saved = [(node, node.vjp) for node in tape.records if node.vjp is not None]
            for node, vjp in saved:
                node.vjp = timed_vjp(node, vjp)
            idx = tracer._open("autodiff.backward")
            try:
                return original(tape, loss)
            finally:
                tracer._close(idx)
                for node, vjp in saved:
                    node.vjp = vjp
        return wrapper

    # -- reduction --------------------------------------------------------

    def table(self) -> dict:
        """name -> {calls, total_s, self_s} over every recorded span."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict = {}
        for (name, start, end, _), covered in zip(self.spans, child_time):
            row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += (end - start) - covered
        return out

    def outside(self, name: str, ancestor: str | None) -> tuple:
        """(calls, total s) of `name` spans that do not run inside an
        `ancestor` span (None: only spans with no traced caller)."""
        calls, total = 0, 0.0
        for span_name, start, end, parent in self.spans:
            if span_name != name:
                continue
            if ancestor is None:
                inside = parent >= 0
            else:
                inside = False
                while parent >= 0 and not inside:
                    inside = self.spans[parent][0] == ancestor
                    parent = self.spans[parent][3]
            if not inside:
                calls += 1
                total += end - start
        return calls, total

    def step_times(self) -> list:
        """Training step times: from the previous SGD update (or the start of
        the `train` call) to the end of each update, so a step covers its
        batching, forward, backward and update."""
        steps = []
        last_end: dict = {}
        for name, _, end, parent in self.spans:
            if name != "training.sgd_momentum_step":
                continue
            train_span = parent
            while train_span >= 0 and self.spans[train_span][0] != "training.train":
                train_span = self.spans[train_span][3]
            if train_span < 0:
                continue
            steps.append(end - last_end.get(train_span, self.spans[train_span][1]))
            last_end[train_span] = end
        return steps


def per_layer(tracer: Tracer, rounds: int, extras: dict) -> dict:
    """The per-layer metrics, per round of the workload (per set-up for the
    input layer, which runs once).  `extras` carries figures the session
    computed itself."""
    t = tracer.table()

    def total(name):
        return t.get(name, {}).get("total_s", 0.0)

    def self_s(name):
        return t.get(name, {}).get("self_s", 0.0)

    def calls(name):
        return t.get(name, {}).get("calls", 0)

    conv_s = total("autodiff.conv2d") + total("autodiff.vjp.conv2d")
    flops = tracer.conv_flops["fwd"] + tracer.conv_flops["vjp"]
    elementwise = sum(total(f"autodiff.{op}") + total(f"autodiff.vjp.{op}")
                      for op in ELEMENTWISE)
    steps = tracer.step_times()
    # prolongate also builds the dense P column by column; that part is
    # counted under prolongation_matrix
    prolong_calls, prolong_s = tracer.outside("grid_transfer.prolongate",
                                              "grid_transfer.prolongation_matrix")
    per_round = {
        "tensor_core.conv2d.calls": calls("tensor_core.conv2d"),
        "tensor_core.conv2d.self_s": self_s("tensor_core.conv2d"),
        "autodiff.conv2d.calls": calls("autodiff.conv2d"),
        "autodiff.conv2d.fwd_s": total("autodiff.conv2d"),
        "autodiff.conv2d.vjp_s": total("autodiff.vjp.conv2d"),
        "autodiff.batchnorm.fwd_s": total("autodiff.batchnorm"),
        "autodiff.batchnorm.vjp_s": total("autodiff.vjp.batchnorm"),
        "autodiff.elementwise_s": elementwise,
        "autodiff.backward.self_s": self_s("autodiff.backward"),
        "mgnet_model.mgnet_forward.train_s": total("mgnet_model.mgnet_forward.train"),
        "mgnet_model.mgnet_forward.eval_s": total("mgnet_model.mgnet_forward.eval"),
        "mgnet_model.apply_bn.self_s": self_s("mgnet_model.KernelOperators.apply_bn"),
        "training.sgd_momentum_step.s": total("training.sgd_momentum_step"),
        "training.evaluate.s": total("training.evaluate"),
        "grid_transfer.restrict_kr.s": total("grid_transfer.restrict_kr"),
        "grid_transfer.restrict_kr.calls": calls("grid_transfer.restrict_kr"),
        "grid_transfer.prolongate.s": prolong_s,
        "grid_transfer.prolongate.calls": prolong_calls,
        "grid_transfer.prolongation_matrix.s": total("grid_transfer.prolongation_matrix"),
        # the ladder's own builds; the mg0 verifier builds its 17^2 one inside
        "poisson_mg.hierarchy_build_s": tracer.outside(
            "poisson_mg.PoissonHierarchy.__init__", None)[1],
        "poisson_mg.apply.s": total("poisson_mg.PoissonHierarchy.apply"),
        "poisson_mg.smooth.s": total("poisson_mg.smooth"),
        "poisson_mg.backslash_mg.s": total("poisson_mg.backslash_mg"),
        "equivalence_lab.verify_mg0.s": total("equivalence_lab.verify_mgnet_mg0"),
        "equivalence_lab.verify_dual.s": total("equivalence_lab.verify_dual_iresnet"),
        "equivalence_lab.verify_sigma.s": total("equivalence_lab.verify_resnet_sigma_transform"),
        "equivalence_lab.verify_embed.s": total("equivalence_lab.verify_cnn_embedding"),
        "data_io.save_checkpoint.s": total("data_io.save_checkpoint"),
        "data_io.load_checkpoint.s": total("data_io.load_checkpoint"),
    }
    metrics = {name: v / rounds for name, v in per_round.items()}
    metrics.update({
        "autodiff.conv2d.computed_gflops": flops / conv_s / 1e9 if conv_s else 0.0,
        "autodiff.tape.records_per_step": (statistics.median(tracer.records_per_backward)
                                           if tracer.records_per_backward else 0),
        "training.step_s": statistics.median(steps) if steps else 0.0,
        "data_io.input_s": total("data_io.gen_synthetic") + total("data_io.load_cifar10"),
    })
    metrics.update(extras)
    return metrics
