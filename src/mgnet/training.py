"""SGD-with-momentum training loop and the finite-difference gradient audit."""

from __future__ import annotations

from dataclasses import dataclass, field, asdict

import numpy as np

from . import autodiff as ad
from .autodiff import Tape, backward, value
from .mgnet_model import MgNetConfig, MgNetWeights, init_weights, logits, mgnet_forward
from .tensor_core import ContractViolation


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
        if self.learning_rate <= 0:
            raise ContractViolation("learning rate must be positive")
        if not 0.0 <= self.momentum < 1.0:
            raise ContractViolation("momentum must lie in [0, 1)")
        if self.batch_size < 1:
            raise ContractViolation("batch size must be >= 1")
        if self.epochs < 1:
            raise ContractViolation(f"epochs must be >= 1, got {self.epochs}")
        if self.lr_decay_every < 1:
            raise ContractViolation(
                f"lr_decay_every must be >= 1 epoch, got {self.lr_decay_every}")

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


def _one_hot(labels, classes: int) -> np.ndarray:
    out = np.zeros((len(labels), classes))
    out[np.arange(len(labels)), labels] = 1.0
    return out


def _forward_logits(images, cfg, weights, training):
    u, _ = mgnet_forward(images, cfg, weights, training=training)
    return logits(u, weights)


def evaluate(cfg: MgNetConfig, weights: MgNetWeights, dataset, batch_size: int = 64):
    """(mean cross-entropy, accuracy) over a dataset in evaluation mode."""
    total_loss = 0.0
    correct = 0
    for start in range(0, len(dataset), batch_size):
        chunk = dataset[start:start + batch_size]
        images, labels = _stack_batch(chunk)
        z = value(_forward_logits(images, cfg, weights, training=False))
        loss = ad.softmax_cross_entropy(z, _one_hot(labels, cfg.classes))
        total_loss += len(chunk) * float(loss)
        correct += int((z.argmax(axis=1) == labels).sum())
    n = len(dataset)
    return total_loss / n, correct / n


@dataclass
class TrainResult:
    history: list = field(default_factory=list)  # per-epoch dicts
    weights: MgNetWeights | None = None


def train(cfg: MgNetConfig, tcfg: TrainConfig, dataset, eval_dataset=None,
          weights: MgNetWeights | None = None, on_epoch=None) -> TrainResult:
    """Per-epoch shuffled mini-batch SGD with momentum; deterministic per seed.

    Raises FloatingPointError, before that batch's update, when a batch loss
    is not finite; the epochs already reported through `on_epoch` stand.
    """
    if not dataset:
        raise ContractViolation("training dataset is empty")
    if weights is None:
        weights = init_weights(cfg, seed=tcfg.seed)
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
                z = _forward_logits(images, cfg, weights, training=True)
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
        if eval_dataset is not None:
            test_loss, test_acc = evaluate(cfg, weights, eval_dataset)
            entry["test_loss"] = test_loss
            entry["test_accuracy"] = test_acc
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


def finite_diff_check(cfg: MgNetConfig, weights: MgNetWeights, images, labels,
                      step: float = 1e-5, max_entries_per_group: int | None = None,
                      seed: int = 0, kink_gap: float = 1e-4) -> GradientCheckReport:
    """Central differences against the reverse sweep for every parameter group.

    Errors are measured relative to each group's largest gradient magnitude.
    Differencing is only meaningful away from rectifier kinks: while any
    pre-activation sits within `kink_gap` of zero (crossable by the `step`),
    the input batch is jittered; zero-initialized biases align kinks exactly
    and cannot be cleared through the inputs, so as a last resort the bias
    parameters are nudged for the duration of the audit and restored after,
    as are the batchnorm running buffers that the training-mode forwards update.
    """
    rng = np.random.default_rng(seed)
    images = np.asarray(images, dtype=float)
    targets = _one_hot(np.asarray(labels, dtype=int), cfg.classes)

    def loss_value():
        z = value(_forward_logits(images, cfg, weights, training=True))
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
                z = _forward_logits(images, cfg, weights, training=True)
                loss = ad.softmax_cross_entropy(z, targets)
            if _min_preactivation(tape) > kink_gap:
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
                err = guarded_error(measure(idx, step), g[idx])
                # a disagreement usually means the +-step interval straddled a
                # rectifier kink; shrinking the step moves the interval off it
                for h in (step / 8.0, step / 64.0):
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
