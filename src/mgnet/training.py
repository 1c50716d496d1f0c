"""SGD-with-momentum training loop and the finite-difference gradient audit."""

from __future__ import annotations

from dataclasses import dataclass, field, asdict

import numpy as np

from . import autodiff as ad
from .autodiff import Tape, backward, value
from .mgnet_model import (MgNetConfig, MgNetWeights, check_weights, init_weights, logits,
                          mgnet_forward)
from .tensor_core import ContractViolation, _check_count


@dataclass
class TrainConfig:
    """Optimizer protocol: staircase learning rate, momentum, mini-batches."""

    learning_rate: float = 0.1
    lr_decay: float = 0.1
    lr_decay_every: int = 30  # epochs
    momentum: float = 0.9
    batch_size: int = 128
    epochs: int = 20
    seed: int = 0

    def __post_init__(self):
        if not (np.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ContractViolation(
                f"learning rate must be positive and finite, got {self.learning_rate}")
        if not (np.isfinite(self.lr_decay) and self.lr_decay > 0):
            raise ContractViolation(f"lr_decay must be positive and finite, got {self.lr_decay}")
        if not 0.0 <= self.momentum < 1.0:
            raise ContractViolation("momentum must lie in [0, 1)")
        for name, minimum in (("batch_size", 1), ("epochs", 1), ("lr_decay_every", 1),
                              ("seed", 0)):
            _check_count(name, getattr(self, name), minimum)

    def lr_at(self, epoch: int) -> float:
        """Learning rate for a 1-based epoch index (divided every decay period)."""
        return self.learning_rate * self.lr_decay ** ((epoch - 1) // self.lr_decay_every)

    def to_dict(self) -> dict:
        return asdict(self)


def sgd_momentum_step(params: dict, grads: dict, velocity: dict, lr: float,
                      momentum: float) -> None:
    """v <- momentum * v - lr * g;  w <- w + v   (velocity starts at zero)."""
    for name, p in params.items():
        g = grads[name]
        v = velocity.get(name)
        v = -lr * g if v is None else momentum * v - lr * g
        velocity[name] = v
        p.data = p.data + v


def _stack_batch(items):
    images = np.stack([it.image for it in items])
    labels = np.array([it.label for it in items], dtype=int)
    return images, labels


def _check_labels(labels, classes: int) -> None:
    outside = labels[(labels < 0) | (labels >= classes)]
    if outside.size:
        raise ContractViolation(
            f"label {outside[0]} is outside [0, {classes}) of a {classes}-class model")


def check_dataset(cfg: MgNetConfig, dataset) -> None:
    """Reject a dataset the model cannot take: empty, a label outside its
    classes, or images whose channel count is not its `in_channels`."""
    if not dataset:
        raise ContractViolation("dataset is empty")
    _check_labels(np.array([it.label for it in dataset], dtype=int), cfg.classes)
    for it in dataset:
        if it.image.shape[-1] != cfg.in_channels:
            raise ContractViolation(
                f"images have {it.image.shape[-1]} channels but the model takes "
                f"in_channels={cfg.in_channels}")


def _one_hot(labels, classes: int) -> np.ndarray:
    _check_labels(labels, classes)
    out = np.zeros((len(labels), classes))
    out[np.arange(len(labels)), labels] = 1.0
    return out


def _forward_logits(images, weights, training):
    u, _ = mgnet_forward(images, weights.cfg, weights, training=training)
    return logits(u, weights)


# images per forward in `evaluate`
EVAL_BATCH = 64


def evaluate(cfg: MgNetConfig, weights: MgNetWeights, dataset):
    """(mean cross-entropy, accuracy) over a dataset in evaluation mode."""
    check_dataset(cfg, dataset)
    check_weights(cfg, weights)
    total_loss = 0.0
    correct = 0
    for start in range(0, len(dataset), EVAL_BATCH):
        chunk = dataset[start:start + EVAL_BATCH]
        images, labels = _stack_batch(chunk)
        z = value(_forward_logits(images, weights, training=False))
        loss = ad.softmax_cross_entropy(z, _one_hot(labels, cfg.classes))
        total_loss += len(chunk) * float(loss)
        correct += int((z.argmax(axis=1) == labels).sum())
    n = len(dataset)
    return total_loss / n, correct / n


@dataclass
class TrainResult:
    history: list = field(default_factory=list)  # per-epoch dicts
    weights: MgNetWeights | None = None


def train(cfg: MgNetConfig, tcfg: TrainConfig, dataset,
          weights: MgNetWeights | None = None, on_epoch=None) -> TrainResult:
    """Per-epoch shuffled mini-batch SGD with momentum; deterministic per seed.

    Raises FloatingPointError, before that batch's update, when a batch loss
    is not finite; the epochs already reported through `on_epoch` stand.
    """
    check_dataset(cfg, dataset)
    if weights is None:
        weights = init_weights(cfg, seed=tcfg.seed)
    check_weights(cfg, weights)
    rng = np.random.default_rng(tcfg.seed)
    velocity: dict[str, np.ndarray] = {}
    result = TrainResult(weights=weights)
    for epoch in range(1, tcfg.epochs + 1):
        order = rng.permutation(len(dataset))
        lr = tcfg.lr_at(epoch)
        epoch_loss = 0.0
        epoch_correct = 0
        for step, start in enumerate(range(0, len(dataset), tcfg.batch_size), 1):
            batch = [dataset[i] for i in order[start:start + tcfg.batch_size]]
            images, labels = _stack_batch(batch)
            targets = _one_hot(labels, cfg.classes)
            with Tape() as tape:
                z = _forward_logits(images, weights, training=True)
                loss = ad.softmax_cross_entropy(z, targets)
            batch_loss = float(value(loss))
            if not np.isfinite(batch_loss):
                raise FloatingPointError(
                    f"training loss is {batch_loss} at epoch {epoch}, step {step}")
            grads = backward(tape, loss)
            sgd_momentum_step(weights.params, grads, velocity, lr, tcfg.momentum)
            epoch_loss += batch_loss * len(batch)
            epoch_correct += int((value(z).argmax(axis=1) == labels).sum())
        entry = {"epoch": epoch,
                 "lr": lr,
                 "loss": epoch_loss / len(dataset),
                 "accuracy": epoch_correct / len(dataset)}
        result.history.append(entry)
        if on_epoch is not None:
            on_epoch(entry)
    return result


# ---------------------------------------------------------------------------
# gradient audit
# ---------------------------------------------------------------------------

@dataclass
class GradientCheckReport:
    worst_relative_error: float
    worst_parameter: str
    per_parameter: dict
    entries_checked: int


def _min_preactivation(tape: Tape) -> float:
    gaps = [float(np.abs(value(node.parents[0])).min())
            for node in tape.records if node.op == "relu"]
    return min(gaps) if gaps else np.inf


# central-difference step of the audit, and the smallest distance from a
# rectifier kink at which a pre-activation counts as safely off it
FD_STEP = 1e-5
FD_KINK_GAP = 1e-4


def finite_diff_check(cfg: MgNetConfig, weights: MgNetWeights, images, labels,
                      max_entries_per_group: int | None = None,
                      seed: int = 0) -> GradientCheckReport:
    """Central differences against the reverse sweep for every parameter group.

    Errors are measured relative to each group's largest gradient magnitude.
    Differencing is only meaningful away from rectifier kinks: while any
    pre-activation sits within `FD_KINK_GAP` of zero (crossable by an
    `FD_STEP` difference), the input batch is jittered; zero-initialized
    biases align kinks exactly and cannot be cleared through the inputs, so
    as a last resort the bias parameters are nudged for the duration of the
    audit and restored after, as are the batchnorm running buffers that the
    training-mode forwards update.
    """
    check_weights(cfg, weights)
    rng = np.random.default_rng(seed)
    images = np.asarray(images, dtype=float)
    targets = _one_hot(np.asarray(labels, dtype=int), cfg.classes)

    def loss_value():
        z = value(_forward_logits(images, weights, training=True))
        return float(ad.softmax_cross_entropy(z, targets))

    saved_biases = {name: p.data.copy() for name, p in weights.params.items()
                    if name.endswith("/bias") or name.endswith("/beta")}
    saved_buffers = {name: b.copy() for name, b in weights.buffers.items()}
    try:
        for attempt in range(8):
            if 1 <= attempt <= 2:
                images = images + 1e-3 * rng.standard_normal(images.shape)
            elif attempt > 2:
                for name in saved_biases:
                    p = weights.params[name]
                    p.data = p.data + 1e-3 * rng.standard_normal(p.data.shape)
            with Tape() as tape:
                z = _forward_logits(images, weights, training=True)
                loss = ad.softmax_cross_entropy(z, targets)
            if _min_preactivation(tape) > FD_KINK_GAP:
                break
        grads = backward(tape, loss)

        per_parameter = {}
        worst, worst_name = 0.0, ""
        checked = 0
        for name, p in weights.params.items():
            g = grads[name]
            flat_indices = np.arange(p.data.size)
            if max_entries_per_group is not None and p.data.size > max_entries_per_group:
                flat_indices = rng.choice(p.data.size, size=max_entries_per_group,
                                          replace=False)

            def measure(idx, h):
                original = p.data[idx]
                p.data[idx] = original + h
                up = loss_value()
                p.data[idx] = original - h
                down = loss_value()
                p.data[idx] = original
                return (up - down) / (2.0 * h)

            def guarded_error(fd, analytic):
                # guarded relative error: differences below the floor are
                # indistinguishable from float noise of the loss at this step
                return abs(fd - analytic) / max(abs(fd), abs(analytic), 1e-4)

            group_worst = 0.0
            for flat in flat_indices:
                idx = np.unravel_index(flat, p.data.shape)
                err = guarded_error(measure(idx, FD_STEP), g[idx])
                # a disagreement usually means the +-step interval straddled a
                # rectifier kink; shrinking the step moves the interval off it
                for h in (FD_STEP / 8.0, FD_STEP / 64.0):
                    if err <= 1e-6:
                        break
                    err = min(err, guarded_error(measure(idx, h), g[idx]))
                group_worst = max(group_worst, err)
                checked += 1
            per_parameter[name] = group_worst
            if group_worst > worst:
                worst, worst_name = group_worst, name
    finally:
        for name, data in saved_biases.items():
            weights.params[name].data = data
        weights.buffers.update(saved_buffers)
    return GradientCheckReport(worst, worst_name, per_parameter, checked)
