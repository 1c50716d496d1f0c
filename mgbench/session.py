"""One benchmark workload: a session of the toolkit at one problem scale.

A session runs the four things a user of mgnet does, in whole rounds:

* train the model from its initial weights with `training.train`, save a
  checkpoint, reload it into fresh weights and evaluate a held-out set, the
  way `mgnet train` and `mgnet eval` do;
* build a `PoissonHierarchy` per ladder problem and solve manufactured
  right-hand sides on it with `solve_poisson`;
* run the equivalence verifiers over a sweep of seeds.

Every round runs the same operations, so the share of failed operations is
the same in every run.  Set-up (imports, input generation or parsing, weight
init) is timed in fresh processes before the rounds and reported as a median.
The first-batch oracles run once after the rounds, at the initial weights;
the others check every round.
"""

from __future__ import annotations

import gc
import os
import resource
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

import oracles

from mgnet import (autodiff, data_io, equivalence_lab, mgnet_model, poisson_mg,
                   tensor_core, training)

clock = time.perf_counter

RTOL = 1e-10
OMEGA = 0.8
NU = 2
SETUP_REPEATS = 9


@dataclass(frozen=True)
class Problem:
    """A ladder entry: grid size, depth and right-hand sides per round.

    A `seeded` problem manufactures its solutions from the run seed; an
    unseeded one always solves the same fixed problem."""

    size: int
    levels: int
    rhs: int
    seeded: bool = True

    @property
    def label(self) -> str:
        return f"{self.size}x{self.size}/L{self.levels}"


@dataclass(frozen=True)
class Scale:
    model: dict                 # MgNetConfig fields
    image_size: int
    cifar_records: bool         # parse generated CIFAR-10 records, else gen_synthetic
    train_images: int
    eval_images: int
    batch: int
    epochs: int
    learning_rate: float
    ladder: tuple
    verify_sized: bool          # sized verifier calls, else verify_all
    verify_seeds: int
    eval_chunks: int = 1        # held-out set evaluated as this many reload+evaluate samples
    min_accuracy: float | None = None
    initial_loss_margin: float | None = None


SCALES = {
    # the CLI's default toy model on 16x16x1 two-class blobs; 33^2 ladder;
    # the verify_all suite at its default (tiny) instance sizes
    "toy": Scale(
        model=dict(J=3, nu=(2, 2, 2), c_u=16, c_f=16, pi_variant="pi1",
                   use_batchnorm=True, in_channels=1, classes=2),
        image_size=16, cifar_records=False, train_images=128, eval_images=128,
        batch=32, epochs=6, learning_rate=0.02,
        ladder=(Problem(33, 4, 8),),
        verify_sized=False, verify_seeds=32, eval_chunks=4, min_accuracy=0.95),
    # the paper's table layout narrowed to 32 channels on CIFAR-10-format
    # records; 65^2 ladder to depth 6; verifiers at enlarged instance sizes
    "paper": Scale(
        model=dict(J=5, nu=(2, 2, 2, 2, 0), c_u=32, c_f=32, pi_variant="pi1",
                   use_batchnorm=True, f_in_variant="conv_relu",
                   shared_data_map=True, in_channels=3, classes=10),
        image_size=32, cifar_records=True, train_images=16, eval_images=32,
        batch=16, epochs=1, learning_rate=0.05,
        ladder=(Problem(65, 5, 3), Problem(65, 6, 1, seeded=False)),
        verify_sized=True, verify_seeds=8, initial_loss_margin=0.05),
}

FIXED_PROBLEM_SEED = 20190129


def scale_named(name: str) -> Scale:
    """A workload's scale; "<workload>/tiny" is the cut-down copy that the
    harness self-test runs."""
    base, _, variant = name.partition("/")
    scale = SCALES[base]
    if variant != "tiny":
        return scale
    model = dict(scale.model, c_u=8, c_f=8)
    return replace(scale, model=model, eval_images=scale.batch, eval_chunks=1, verify_seeds=1,
                   ladder=(Problem(17, 3, 1),) + tuple(p for p in scale.ladder if not p.seeded))


@dataclass
class Session:
    scale: Scale
    seed: int
    workdir: str
    tracer: object = None
    errors: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    samples: dict = field(default_factory=dict)   # operation -> its timings
    details: dict = field(default_factory=dict)   # figures for the report lines

    @contextmanager
    def timed(self, sample: str | None = None):
        """Traced, and (when `sample` is named) timed into that sample list."""
        if self.tracer is not None:
            self.tracer.active = True
        t0 = clock()
        try:
            yield
        finally:
            elapsed = clock() - t0
            if self.tracer is not None:
                self.tracer.active = False
            if sample is not None:
                self.samples.setdefault(sample, []).append(elapsed)

    def check(self, where: str, errors: list) -> None:
        for e in errors:
            if f"{where}: {e}" not in self.errors:
                self.errors.append(f"{where}: {e}")


# ---------------------------------------------------------------------------
# set-up: inputs and initial weights
# ---------------------------------------------------------------------------

def _cifar_records(items, rng) -> tuple:
    """CIFAR-10 binary records of `items` (1-channel blobs tinted into three
    planes), in a seeded order.  Returns (bytes, uint8 planes, labels)."""
    order = rng.permutation(len(items))
    tint = np.array([1.0, 0.85, 0.7])
    planes = np.stack([np.rint(255.0 * items[i].image[:, :, 0][None] * tint[:, None, None])
                       for i in order]).astype(np.uint8)   # (n, 3, 32, 32)
    labels = np.array([items[i].label for i in order], dtype=np.uint8)
    records = np.concatenate([labels[:, None], planes.reshape(len(order), -1)], axis=1)
    return records.tobytes(), planes, labels


def setup(session: Session):
    """Inputs and initial weights; returns (cfg, train_items, eval_items, weights)."""
    scale, seed = session.scale, session.seed
    cfg = mgnet_model.MgNetConfig(**scale.model)
    if scale.cifar_records:
        total = scale.train_images + scale.eval_images
        per_class = -(-total // cfg.classes)
        blobs = data_io.gen_synthetic(cfg.classes, per_class, size=scale.image_size,
                                      seed=seed)
        raw, planes, labels = _cifar_records(blobs, np.random.default_rng(seed))
        path = os.path.join(session.workdir, "data_batch_1.bin")
        with open(path, "wb") as fh:
            fh.write(raw)
        items = data_io.load_cifar10(path)
        session.details["cifar_check"] = (items, planes, labels)
        train_items, eval_items = items[:scale.train_images], items[scale.train_images:total]
    else:
        per_class = scale.train_images // cfg.classes
        train_items = data_io.gen_synthetic(cfg.classes, per_class,
                                            size=scale.image_size, seed=2 * seed)
        eval_items = data_io.gen_synthetic(cfg.classes, scale.eval_images // cfg.classes,
                                           size=scale.image_size, seed=2 * seed + 1)
    weights = mgnet_model.init_weights(cfg, seed=seed)
    return cfg, train_items, eval_items, weights


def check_setup(session: Session, cfg, train_items, eval_items) -> None:
    scale = session.scale
    if scale.cifar_records:
        session.check("load_cifar10", oracles.check_cifar(*session.details.pop("cifar_check")))
    shape = (scale.image_size, scale.image_size, cfg.in_channels)
    if len(train_items) != scale.train_images or len(eval_items) != scale.eval_images:
        session.check("inputs", [f"{len(train_items)}/{len(eval_items)} items"])
    if any(it.image.shape != shape for it in train_items + eval_items):
        session.check("inputs", [f"image shape is not {shape}"])


# ---------------------------------------------------------------------------
# the once-per-run oracles on the first batch
# ---------------------------------------------------------------------------

def _batch(items):
    return (np.stack([it.image for it in items]),
            np.array([it.label for it in items], dtype=int))


def first_batch(items, batch: int, seed: int):
    """The images `training.train` shuffles into its first step."""
    order = np.random.default_rng(seed).permutation(len(items))
    return _batch([items[i] for i in order[:batch]])


def _logits(cfg, weights, images, training_mode):
    u, _ = mgnet_model.mgnet_forward(images, cfg, weights, training=training_mode)
    return mgnet_model.logits(u, weights)


def first_batch_oracles(session: Session, cfg, weights, train_items) -> None:
    """At the initial weights, on the first training batch: conv calls
    against the shifted-slice reference, (when set) the first loss near
    log(classes), and the gradient against directional differences."""
    scale = session.scale
    images, labels = first_batch(train_items, scale.batch, session.seed)

    theta0 = weights.kernel("theta0")
    session.check("conv2d", oracles.check_conv(
        tensor_core.conv2d(images, theta0, 1), images, np.asarray(theta0.weights),
        np.asarray(theta0.bias), 1))
    pi = weights.kernel("level1/pi")
    feats = np.random.default_rng(session.seed).standard_normal(
        images.shape[:3] + (cfg.c_u,))
    session.check("conv2d", oracles.check_conv(
        tensor_core.conv2d(feats, pi, 2), feats, np.asarray(pi.weights),
        np.asarray(pi.bias), 2))

    loss0, _ = loss_and_pattern(cfg, weights, images, labels)
    if not np.isfinite(loss0):
        session.check("loss", [f"initial loss {loss0} is not finite"])
    if scale.initial_loss_margin is not None:
        session.check("loss", oracles.check_initial_loss(loss0, cfg.classes,
                                                         scale.initial_loss_margin))
    session.details["initial_loss"] = loss0
    session.check("gradient", gradient_check(cfg, weights, images, labels, session.seed))


def loss_and_pattern(cfg, weights, images, labels):
    """Training-mode loss and the on/off pattern of every rectifier, read
    from the tape; the BN running buffers the forward rewrites are restored."""
    saved = {n: b.copy() for n, b in weights.buffers.items()}
    try:
        with autodiff.Tape() as tape:
            z = _logits(cfg, weights, images, True)
    finally:
        weights.buffers.update(saved)
    inputs = [np.asarray(autodiff.value(node.parents[0]))
              for node in tape.records if node.op == "relu"]
    loss = oracles.mean_cross_entropy(np.asarray(autodiff.value(z)), labels)
    return loss, [(x > 0, x == 0) for x in inputs]


def gradient_check(cfg, weights, images, labels, seed, grad_sign=1.0) -> list:
    """Directional-derivative oracle: <grad L, d> from the backward sweep
    against central differences of L along unit random directions d over
    every parameter.  Returns the failure messages.

    L is piecewise smooth: a difference is only compared when no rectifier
    input is 0 at the point and none changes sign between the two ends of
    the step (read from the tape), so it is exact to rounding.  Zero biases
    put inputs exactly at 0, so every bias and BN shift is first moved by a
    seeded N(0, 0.1^2) offset.  Each direction takes the largest clean step
    of 1e-5 .. 1e-8 (the paper-scale model has millions of rectifiers, so
    larger steps often cross one); two of up to six directions must compare,
    and every comparison must agree.  Parameters and BN buffers are
    restored.  `grad_sign` lets the self-test flip the gradient.
    """
    saved_params = {n: p.data.copy() for n, p in weights.params.items()}
    targets = np.zeros((len(labels), cfg.classes))
    targets[np.arange(len(labels)), labels] = 1.0
    rng = np.random.default_rng(seed)
    compared, errors = 0, []
    try:
        for n, p in weights.params.items():
            if n.endswith("/bias") or n.endswith("/beta"):
                p.data = p.data + 0.1 * rng.standard_normal(p.data.shape)
        shifted = {n: p.data.copy() for n, p in weights.params.items()}
        saved_buffers = {n: b.copy() for n, b in weights.buffers.items()}
        with autodiff.Tape() as tape:
            loss = autodiff.softmax_cross_entropy(
                _logits(cfg, weights, images, True), targets)
        grads = {n: grad_sign * g for n, g in autodiff.backward(tape, loss).items()}
        weights.buffers.update(saved_buffers)
        _, base = loss_and_pattern(cfg, weights, images, labels)
        if any(zero.any() for _, zero in base):
            return ["a rectifier input is exactly 0 at the shifted weights"]
        for _ in range(6):
            direction = {n: rng.standard_normal(p.data.shape)
                         for n, p in weights.params.items()}
            norm = np.sqrt(sum(float((d * d).sum()) for d in direction.values()))
            analytic = sum(float((grads[n] * d).sum()) for n, d in direction.items()) / norm

            def at(t):
                for n, p in weights.params.items():
                    p.data = shifted[n] + (t / norm) * direction[n]
                return loss_and_pattern(cfg, weights, images, labels)

            for h in (1e-5, 1e-6, 1e-7, 1e-8):
                (up, up_pattern), (down, down_pattern) = at(h), at(-h)
                if all(np.array_equal(on, o1) and np.array_equal(on, o2)
                       for (on, _), (o1, _), (o2, _) in zip(base, up_pattern, down_pattern)):
                    fd = (up - down) / (2.0 * h)
                    compared += 1
                    if not oracles.derivatives_agree(analytic, fd, h, max(abs(up), abs(down))):
                        errors.append(f"directional derivative: backward gives "
                                      f"{analytic:.6e}, central difference {fd:.6e}")
                    break
            if compared == 2:
                break
    finally:
        for n, p in weights.params.items():
            p.data = saved_params[n]
    if compared < 2:
        errors.append(f"only {compared} of 6 directions had a step free of rectifier kinks")
    return errors


# ---------------------------------------------------------------------------
# one round
# ---------------------------------------------------------------------------

def _hierarchy_bytes(obj, seen=None) -> int:
    """Bytes of every numpy array the hierarchy object holds, whatever its
    layout (lists, dataclasses, kernels)."""
    seen = set() if seen is None else seen
    if id(obj) in seen:
        return 0
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, (list, tuple)):
        return sum(_hierarchy_bytes(v, seen) for v in obj)
    if isinstance(obj, dict):
        return sum(_hierarchy_bytes(v, seen) for v in obj.values())
    if hasattr(obj, "__dict__"):
        return sum(_hierarchy_bytes(v, seen) for v in vars(obj).values())
    return 0


def manufactured_solutions(session: Session) -> list:
    """Per ladder problem, the exact solutions u* of its right-hand sides."""
    out = []
    for j, prob in enumerate(session.scale.ladder):
        seed = (session.seed, j) if prob.seeded else (FIXED_PROBLEM_SEED, j)
        rng = np.random.default_rng(seed)
        out.append([rng.standard_normal((prob.size, prob.size)) for _ in range(prob.rhs)])
    return out


def train_eval_round(session: Session, cfg, train_items, eval_items, first: bool) -> None:
    scale = session.scale
    tcfg = training.TrainConfig(learning_rate=scale.learning_rate, momentum=0.9,
                                batch_size=scale.batch, epochs=scale.epochs,
                                seed=session.seed)
    weights = mgnet_model.init_weights(cfg, seed=session.seed)
    marks = []
    with session.timed():
        marks.append(clock())
        result = training.train(cfg, tcfg, train_items, weights=weights,
                                on_epoch=lambda entry: marks.append(clock()))
    session.samples.setdefault("epoch", []).extend(np.diff(marks).tolist())
    session.attempted += 1
    losses = [h["loss"] for h in result.history]
    if not all(np.isfinite(losses)):
        session.check("train", [f"non-finite epoch loss in {losses}"])

    path = os.path.join(session.workdir, "checkpoint.mgnet")
    with session.timed():
        data_io.save_checkpoint(path, result.weights.state_dict())
    session.attempted += 1
    session.details["checkpoint_bytes"] = os.path.getsize(path)

    size = scale.eval_images // scale.eval_chunks
    chunks = [eval_items[i:i + size] for i in range(0, scale.eval_images, size)]
    results = []
    for chunk in chunks:
        with session.timed("eval"):
            reloaded = mgnet_model.init_weights(cfg, seed=0)
            reloaded.load_state_dict(data_io.load_checkpoint(path))
            results.append(training.evaluate(cfg, reloaded, chunk))
        session.attempted += 1

    if first:
        session.details["eval"] = [training.evaluate(cfg, result.weights, c) for c in chunks]
        session.check("checkpoint", oracles.check_same_tensors(
            result.weights.state_dict(), reloaded.state_dict()))
    if results != session.details["eval"]:
        session.check("checkpoint", [
            f"reloaded weights evaluate to {results}, in-memory weights "
            f"to {session.details['eval']}"])
    losses = [loss for loss, _ in results]
    accuracy = float(np.mean([acc for _, acc in results]))
    if not np.all(np.isfinite(losses)):
        session.check("eval", [f"held-out losses {losses} are not all finite"])
    if scale.min_accuracy is not None and not accuracy >= scale.min_accuracy:
        session.check("eval", [f"held-out accuracy {accuracy:.3f} < {scale.min_accuracy}"])
    session.details["accuracy"] = accuracy


def ladder_round(session: Session, solutions: list) -> None:
    cycles = 0
    for prob, u_stars in zip(session.scale.ladder, solutions):
        with session.timed(f"build {prob.label}"):
            hierarchy = poisson_mg.PoissonHierarchy(prob.size, prob.size, prob.levels)
        session.attempted += 1
        session.details.setdefault("operator_bytes", {})[prob.label] = _hierarchy_bytes(hierarchy)
        factors, problem_cycles = [], 0
        for u_star in u_stars:
            f = oracles.poisson_apply(u_star)
            with session.timed(f"solve {prob.label}"):
                result = poisson_mg.solve_poisson(f, prob.levels, [NU] * prob.levels,
                                                  omega=OMEGA, rtol=RTOL, hierarchy=hierarchy)
            session.attempted += 1
            problem_cycles += result.cycles
            final = result.residual_norms[-1] / np.linalg.norm(f)
            factors.append(final ** (1.0 / result.cycles))
            if not result.converged:
                session.failed += 1
                continue
            session.check(f"poisson {prob.label}",
                          oracles.check_poisson(f, u_star, result.u, result.converged, RTOL))
        session.details.setdefault("convergence_factor", {})[prob.label] = float(
            np.exp(np.mean(np.log(factors))))
        session.details.setdefault("cycles", {})[prob.label] = problem_cycles
        cycles += problem_cycles
        del hierarchy
    session.samples.setdefault("cycles", []).append(cycles)


def verify_round(session: Session) -> None:
    """One timed sample per seed of the sweep."""
    reports = []
    for s in range(session.seed * 1000, session.seed * 1000 + session.scale.verify_seeds):
        with session.timed("verify"):
            if session.scale.verify_sized:
                reports.extend([
                    equivalence_lab.verify_mgnet_mg0(size=33, levels=4, nu=(2, 2, 2, 2), seed=s),
                    equivalence_lab.verify_dual_iresnet(seed=s, channels=16, size=16),
                    equivalence_lab.verify_resnet_sigma_transform(channels=16, size=16, seed=s),
                    equivalence_lab.verify_cnn_embedding(channels=8, size=16, seed=s)])
            else:
                reports.extend(equivalence_lab.verify_all(seed=s))
    session.attempted += len(reports)
    session.check("verify", oracles.check_reports(reports))


# ---------------------------------------------------------------------------
# the whole run
# ---------------------------------------------------------------------------

# a fresh interpreter that imports the package and sets up one workload
_FRESH_SETUP = ("import sys; sys.path[:0] = sys.argv[1:3]; import session; "
                "session.setup(session.Session(session.scale_named(sys.argv[3]), "
                "int(sys.argv[4]), sys.argv[5]))")


def fresh_setup_times(scale_name: str, seed: int, workdir: str) -> list:
    """Wall time of SETUP_REPEATS fresh processes that start the interpreter,
    import mgnet and set the workload up: the start-up a user of the CLI
    waits for, imports included."""
    src = str(Path(tensor_core.__file__).resolve().parent.parent)
    bench = str(Path(__file__).resolve().parent)
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = clock()
        subprocess.run([sys.executable, "-c", _FRESH_SETUP, src, bench, scale_name,
                        str(seed), workdir], check=True)
        times.append(clock() - t0)
    return times


def run(scale_name: str, seed: int, seconds: float, workdir: str, tracer=None) -> dict:
    session = Session(scale_named(scale_name), seed, workdir, tracer)
    setups = fresh_setup_times(scale_name, seed, workdir)
    with session.timed():
        cfg, train_items, eval_items, weights = setup(session)
    check_setup(session, cfg, train_items, eval_items)
    solutions = manufactured_solutions(session)

    # whole rounds; the next one starts only if it should end within `seconds`
    rounds = []
    start = clock()
    while not rounds or clock() - start + statistics.median(rounds) <= seconds:
        gc.collect()
        t0 = clock()
        train_eval_round(session, cfg, train_items, eval_items, first=not rounds)
        ladder_round(session, solutions)
        verify_round(session)
        rounds.append(clock() - t0)

    # read before the first-batch oracles, whose tapes would set the peak
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    first_batch_oracles(session, cfg, weights, train_items)

    # a per-round figure is the count of an operation times the median of
    # its samples over the run, so every sample counts against the noise
    scale = session.scale
    med = {k: statistics.median(v) for k, v in session.samples.items()}
    end_to_end = {
        "setup_s": statistics.median(setups),
        "train_images_per_s": scale.train_images / med["epoch"],
        "eval_images_per_s": scale.eval_images / scale.eval_chunks / med["eval"],
        "hierarchy_build_s": sum(med[f"build {p.label}"] for p in scale.ladder),
        "poisson_solve_s": sum(p.rhs * med[f"solve {p.label}"] for p in scale.ladder),
        "poisson_cycles": med["cycles"],
        "verify_s": scale.verify_seeds * med["verify"],
        "peak_rss_mb": peak_rss_mb,
    }
    d = session.details
    extras = {
        "poisson_mg.operator_bytes": max(d["operator_bytes"].values()),
        "poisson_mg.convergence_factor": max(d["convergence_factor"].values()),
        "data_io.checkpoint_bytes": d["checkpoint_bytes"],
    }
    return {
        "correct": not session.errors,
        "errors": session.errors,
        "attempted": session.attempted,
        "failed": session.failed,
        "rounds": len(rounds),
        "round_s": statistics.median(rounds),
        "end_to_end": end_to_end,
        "samples": session.samples,
        "extras": extras,
        "details": {
            "initial_loss": d["initial_loss"],
            "held_out_accuracy": d["accuracy"],
            "cycles": d["cycles"],
            "convergence_factor": d["convergence_factor"],
            "operator_bytes": d["operator_bytes"],
        },
    }
