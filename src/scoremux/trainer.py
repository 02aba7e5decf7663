"""Fine-tuning of one task module on a frozen backbone.

The recipe: cross-entropy plus a Frobenius penalty on the scaled low-rank
updates, Adam (0.9/0.999/1e-8), linear learning-rate warmup over the first
fraction of total steps, per-step global gradient-norm clipping, and early
stopping on validation loss with parameter restore from the best epoch. The
same machinery drives MLM pretraining of an unfrozen backbone.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .adapters import LoraAdapter, LoraConfig, new_adapter
from .backbone import Backbone, TokenSeq, mlm_step, param_order, tokenize
from .data import TaskDataset, split_dataset
from .errors import ContractError, FrozenViolationError, ShapeError
from .evalkit import qwk
from .heads import ClassificationHead, head_forward, new_head
from .numerics import (
    Matrix,
    Rng,
    Tape,
    add,
    frobenius_norm,
    matmul,
    scale,
    softmax,
    square,
)
from .numerics import cross_entropy as _ce_op
from .orchestrator import ModuleMetadata, TaskModule

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 5e-5
    batch_size: int = 32
    max_epochs: int = 5
    patience: int = 2
    warmup_fraction: float = 0.10
    clip_norm: float = 1.0
    reg_lambda: float = 1e-4
    seed: int = 0
    ce_reduction: str = "mean"

    def __post_init__(self):
        for name in ("learning_rate", "batch_size", "max_epochs", "patience", "clip_norm"):
            if getattr(self, name) <= 0:
                raise ContractError(f"{name} must be positive")
        if not (0.0 <= self.warmup_fraction < 1.0):
            raise ContractError("warmup_fraction must be in [0, 1)")
        if self.patience > self.max_epochs:
            raise ContractError("patience cannot exceed max_epochs")
        if self.reg_lambda < 0:
            raise ContractError("reg_lambda must be >= 0")
        if self.ce_reduction not in ("mean", "sum"):
            raise ContractError(f"unknown ce_reduction {self.ce_reduction!r}")


@dataclass(frozen=True)
class EpochStats:
    train_loss: float
    val_loss: float
    val_qwk: float


@dataclass
class TrainReport:
    task_id: str
    epochs: list[EpochStats]
    stopped_epoch: int
    best_epoch: int
    final_delta_norms: dict[str, float]
    lr_schedule: list[float] = field(default_factory=list, repr=False)
    grad_norms: list[float] = field(default_factory=list, repr=False)
    warmup_steps: int = 0
    train_seconds: float = 0.0

    def to_text(self) -> str:
        lines = [
            f"task_id: {self.task_id}",
            f"stopped_epoch: {self.stopped_epoch}",
            f"best_epoch: {self.best_epoch}",
            f"warmup_steps: {self.warmup_steps}",
            f"total_steps: {len(self.lr_schedule)}",
            f"train_seconds: {self.train_seconds:.2f}",
        ]
        for i, e in enumerate(self.epochs, 1):
            lines.append(
                f"epoch {i}: train_loss={e.train_loss:.6f} val_loss={e.val_loss:.6f} val_qwk={e.val_qwk:.4f}"
            )
        for name, norm in self.final_delta_norms.items():
            lines.append(f"delta_norm[{name}]: {norm:.6f}")
        return "\n".join(lines) + "\n"


def one_hot(labels, num_classes: int, precision) -> Matrix:
    arr = np.zeros((len(labels), num_classes), dtype=precision.dtype)
    arr[np.arange(len(labels)), list(labels)] = 1.0
    return Matrix(arr)


def cross_entropy(probs: Matrix, labels: Matrix, reduction: str = "mean") -> Matrix:
    """Mean (or summed) cross-entropy; validates rows are distributions/one-hot."""
    if probs.shape != labels.shape:
        raise ShapeError(f"cross_entropy: probs {probs.shape} vs labels {labels.shape}")
    row_sums = probs.data.sum(axis=1)
    if np.abs(row_sums - 1.0).max() > 1e-4:
        raise ContractError("cross_entropy: probability rows must sum to 1 within 1e-4")
    lab = labels.data
    if not (np.isin(lab, (0.0, 1.0)).all() and np.all(lab.sum(axis=1) == 1.0)):
        raise ContractError("cross_entropy: labels must be one-hot rows")
    return _ce_op(probs, labels, reduction)


def total_loss(ce: Matrix, adapter: LoraAdapter, reg_lambda: float) -> Matrix:
    """ce + lambda * sum over patches of ||scaled delta||_F^2, on the tape."""
    if reg_lambda < 0:
        raise ContractError("reg_lambda must be >= 0")
    if reg_lambda == 0.0:
        return ce
    penalty = None
    s = adapter.delta_scale()
    for patch in adapter.targets:
        term = square(frobenius_norm(scale(matmul(patch.a, patch.b), s)))
        penalty = term if penalty is None else add(penalty, term)
    if penalty is None:
        return ce
    return add(ce, scale(penalty, reg_lambda))


def delta_norm_total(adapter: LoraAdapter) -> float:
    """Sum of squared Frobenius norms of the scaled deltas (plain numpy)."""
    return float(sum(np.sum(adapter.delta_matrix(p).astype(np.float64) ** 2) for p in adapter.targets))


# -- optimizer -----------------------------------------------------------------


@dataclass
class ParamSlot:
    name: str
    get: Callable[[], Matrix]
    set: Callable[[Matrix], None]


def _attr_slot(name: str, obj, attr: str) -> ParamSlot:
    return ParamSlot(name, lambda: getattr(obj, attr), lambda m: setattr(obj, attr, m))


def adapter_head_slots(adapter: LoraAdapter, head: ClassificationHead) -> list[ParamSlot]:
    slots = []
    for p in adapter.targets:
        base = f"layer{p.layer_index}.{p.kind.slot}"
        slots.append(_attr_slot(base + ".A", p, "a"))
        slots.append(_attr_slot(base + ".B", p, "b"))
    slots.append(_attr_slot("head.weight", head, "weight"))
    slots.append(_attr_slot("head.bias", head, "bias"))
    return slots


class Adam:
    """Adam with bias correction; learning rate supplied per step."""

    def __init__(self, slots: list[ParamSlot]):
        self.slots = slots
        self._m = [np.zeros(s.get().shape, dtype=np.float64) for s in slots]
        self._v = [np.zeros(s.get().shape, dtype=np.float64) for s in slots]
        self._t = 0

    def step(self, grads: list[np.ndarray], lr: float) -> None:
        self._t += 1
        c1 = 1.0 - ADAM_BETA1**self._t
        c2 = 1.0 - ADAM_BETA2**self._t
        for i, (slot, g) in enumerate(zip(self.slots, grads)):
            g64 = g.astype(np.float64)
            self._m[i] = ADAM_BETA1 * self._m[i] + (1.0 - ADAM_BETA1) * g64
            self._v[i] = ADAM_BETA2 * self._v[i] + (1.0 - ADAM_BETA2) * g64 * g64
            update = lr * (self._m[i] / c1) / (np.sqrt(self._v[i] / c2) + ADAM_EPS)
            current = slot.get()
            slot.set(Matrix((current.data - update).astype(current.data.dtype)))


def clip_gradients(grads: list[np.ndarray], clip_norm: float) -> tuple[list[np.ndarray], float]:
    """Global-norm clipping; returns (clipped grads, post-clip norm)."""
    total = math.sqrt(sum(float(np.sum(g.astype(np.float64) ** 2)) for g in grads))
    if total > clip_norm:
        factor = clip_norm / total
        return [g * factor for g in grads], total * factor
    return grads, total


def warmup_lr(step: int, base_lr: float, warmup_steps: int) -> float:
    """Linear 0 -> base over warmup_steps (1-indexed step), then constant."""
    if warmup_steps > 0 and step <= warmup_steps:
        return base_lr * step / warmup_steps
    return base_lr


class EarlyStopper:
    """Stop after `patience` consecutive epochs without val-loss improvement."""

    def __init__(self, patience: int):
        self.patience = patience
        self.best_loss = math.inf
        self.best_epoch = 0
        self.bad_streak = 0

    def update(self, epoch: int, val_loss: float) -> bool:
        if val_loss < self.best_loss:
            self.best_loss = val_loss
            self.best_epoch = epoch
            self.bad_streak = 0
            return True
        self.bad_streak += 1
        return False

    @property
    def should_stop(self) -> bool:
        return self.bad_streak >= self.patience


# -- training loops -------------------------------------------------------------


def _eval_split(backbone, adapter, head, examples, num_classes, batch_size) -> tuple[float, float]:
    """(mean CE, QWK) of the current module on a tokenized split; no tape."""
    golds = [label for _, label in examples]
    preds = []
    loss_sum = 0.0
    for lo in range(0, len(examples), batch_size):
        chunk = examples[lo : lo + batch_size]
        probs = softmax(head_forward(head, backbone.encode([t for t, _ in chunk], adapter))).data
        for row, (_, label) in zip(probs, chunk):
            loss_sum -= math.log(max(float(row[label]), 1e-12))
            preds.append(int(np.argmax(row)))
    import warnings as _warnings

    with _warnings.catch_warnings():
        _warnings.simplefilter("ignore", RuntimeWarning)
        agreement = qwk(golds, preds, num_classes) if len(golds) else 0.0
    return loss_sum / max(1, len(examples)), agreement


def train_task(
    backbone: Backbone,
    dataset: TaskDataset,
    train_config: TrainConfig | None = None,
    lora_config: LoraConfig | None = None,
) -> tuple[TaskModule, TrainReport]:
    """Optimize adapter + head on the dataset's train split; backbone untouched."""
    cfg = train_config or TrainConfig()
    lcfg = lora_config or LoraConfig()
    if not backbone.frozen:
        raise FrozenViolationError("train_task requires a frozen backbone")
    if dataset.splits is None:
        split_dataset(dataset, cfg.seed)
    splits = dataset.splits
    if not splits.train or not splits.val:
        raise ContractError("train and validation splits must be non-empty")

    t_begin = time.perf_counter()
    bcfg = backbone.config
    rng = Rng(cfg.seed)
    precision = backbone.precision
    adapter = new_adapter(
        dataset.task_id, bcfg, lcfg.rank, lcfg.alpha, rng=rng,
        precision=precision, scale_mode=lcfg.scale_mode,
    )
    head = new_head(dataset.task_id, dataset.num_classes, bcfg.d_model, rng, precision)
    slots = adapter_head_slots(adapter, head)
    adam = Adam(slots)
    stopper = EarlyStopper(cfg.patience)

    token_cache: dict[str, TokenSeq] = {}

    def toks(text: str) -> TokenSeq:
        seq = token_cache.get(text)
        if seq is None:
            seq = token_cache[text] = tokenize(text, bcfg)
        return seq

    train_examples = [(toks(it.text), it.score) for it in splits.train]
    val_examples = [(toks(it.text), it.score) for it in splits.val]

    steps_per_epoch = math.ceil(len(train_examples) / cfg.batch_size)
    warmup_steps = math.ceil(cfg.warmup_fraction * steps_per_epoch * cfg.max_epochs)

    lr_schedule: list[float] = []
    grad_norms: list[float] = []
    epoch_stats: list[EpochStats] = []
    best_snapshot = [s.get() for s in slots]
    step = 0
    stopped_epoch = cfg.max_epochs

    for epoch in range(1, cfg.max_epochs + 1):
        order = rng.split(f"epoch{epoch}").permutation(len(train_examples))
        epoch_loss = 0.0
        for lo in range(0, len(order), cfg.batch_size):
            batch = [train_examples[int(i)] for i in order[lo : lo + cfg.batch_size]]
            step += 1
            lr_t = warmup_lr(step, cfg.learning_rate, warmup_steps)
            with Tape() as tape:
                for s in slots:
                    tape.watch(s.get())
                hiddens = backbone.encode([t for t, _ in batch], adapter)
                probs = softmax(head_forward(head, hiddens))
                labels = one_hot([y for _, y in batch], dataset.num_classes, precision)
                loss = total_loss(cross_entropy(probs, labels, cfg.ce_reduction), adapter, cfg.reg_lambda)
            grads = tape.backward(loss)
            garrs = [grads[s.get()].data for s in slots]
            garrs, post_norm = clip_gradients(garrs, cfg.clip_norm)
            adam.step(garrs, lr_t)
            lr_schedule.append(lr_t)
            grad_norms.append(post_norm)
            epoch_loss += loss.item() * len(batch)
        train_loss = epoch_loss / len(train_examples)
        val_loss, val_qwk = _eval_split(
            backbone, adapter, head, val_examples, dataset.num_classes, cfg.batch_size
        )
        epoch_stats.append(EpochStats(train_loss, val_loss, val_qwk))
        if stopper.update(epoch, val_loss):
            best_snapshot = [s.get() for s in slots]
        if stopper.should_stop:
            stopped_epoch = epoch
            break

    for s, saved in zip(slots, best_snapshot):
        s.set(saved)

    final_norms = {
        f"layer{p.layer_index}.{p.kind.slot}": float(
            np.sqrt(np.sum(adapter.delta_matrix(p).astype(np.float64) ** 2))
        )
        for p in adapter.targets
    }
    module = TaskModule(
        task_id=dataset.task_id,
        adapter=adapter,
        head=head,
        metadata=ModuleMetadata(
            num_classes=dataset.num_classes,
            created_at=int(time.time()),
            backbone_fingerprint=backbone.frozen_fingerprint or "",
        ),
    )
    report = TrainReport(
        task_id=dataset.task_id,
        epochs=epoch_stats,
        stopped_epoch=stopped_epoch,
        best_epoch=stopper.best_epoch,
        final_delta_norms=final_norms,
        lr_schedule=lr_schedule,
        grad_norms=grad_norms,
        warmup_steps=warmup_steps,
        train_seconds=time.perf_counter() - t_begin,
    )
    return module, report


def pretrain_backbone(
    backbone: Backbone,
    sequences: list[TokenSeq],
    config: TrainConfig | None = None,
    epochs: int = 1,
) -> list[float]:
    """MLM pretraining loop over the corpus; returns the per-step loss trace.

    Mirrors the fine-tuning optimizer settings (same config type); the caller
    decides when to freeze.
    """
    cfg = config or TrainConfig()
    if backbone.frozen:
        raise FrozenViolationError("cannot pretrain a frozen backbone")
    if not sequences:
        raise ContractError("empty pretraining corpus")
    rng = Rng(cfg.seed).split("pretrain")
    names = [name for name, _, _ in param_order(backbone.config)]
    slots = [
        ParamSlot(name, lambda n=name: backbone.params[n], lambda m, n=name: backbone.set_param(n, m))
        for name in names
    ]
    adam = Adam(slots)
    steps_per_epoch = math.ceil(len(sequences) / cfg.batch_size)
    warmup_steps = math.ceil(cfg.warmup_fraction * steps_per_epoch * epochs)
    losses: list[float] = []
    step = 0
    for epoch in range(1, epochs + 1):
        order = rng.split(f"epoch{epoch}").permutation(len(sequences))
        for lo in range(0, len(order), cfg.batch_size):
            batch = [sequences[int(i)] for i in order[lo : lo + cfg.batch_size]]
            step += 1
            with Tape() as tape:
                for s in slots:
                    tape.watch(s.get())
                loss = mlm_step(backbone, batch, rng)
            grads = tape.backward(loss)
            garrs = [grads[s.get()].data for s in slots]
            garrs, _ = clip_gradients(garrs, cfg.clip_norm)
            adam.step(garrs, warmup_lr(step, cfg.learning_rate, warmup_steps))
            losses.append(loss.item())
    return losses
