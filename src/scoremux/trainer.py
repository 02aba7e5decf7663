"""Training: `fit`, the one optimizer loop, and the trainers that call it.

`fit` holds the recipe: per-epoch shuffles from a label-addressed RNG
substream, minibatch Adam (0.9/0.999/1e-8), linear learning-rate warmup over
the first fraction of the planned steps, and per-step global gradient-norm
clipping. `train_task` fits a LoRA adapter and head on a frozen backbone
(cross-entropy plus a Frobenius penalty on the scaled low-rank updates, early
stopping on validation loss, restore of the best epoch): each step records
`adapters.effective_weights` on the tape once, and the encoder and the
penalty both read its nodes. `pretrain_backbone`
fits an unfrozen backbone on the masked-token loss; and
`workbench.train_full_baseline` fits a backbone clone and head on
cross-entropy. `_eval_split` scores a split with `orchestrator.score_tokens`,
so validation loss and QWK read the probabilities `score` would serve;
`batch_size` sets the training minibatch only.
"""

from __future__ import annotations

import math
import time
import warnings
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .adapters import LoraAdapter, LoraConfig, effective_weights, new_adapter
from .backbone import Backbone, TokenSeq, mlm_step, param_order, tokenize
from .data import TaskDataset, split_dataset
from .errors import ContractError, FrozenViolationError
from .evalkit import qwk
from .heads import ClassificationHead, head_forward, new_head
from .numerics import Matrix, Rng, Tape, add, cross_entropy, frobenius_norm, scale, square
from .orchestrator import TaskModule, score_tokens

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


def total_loss(ce: Matrix, deltas: list[Matrix], reg_lambda: float) -> Matrix:
    """ce + lambda * sum of ||s * A @ B||_F^2 over the `effective_weights` deltas, on the tape."""
    if reg_lambda < 0:
        raise ContractError("reg_lambda must be >= 0")
    if reg_lambda == 0.0 or not deltas:
        return ce
    penalty = None
    for delta in deltas:
        term = square(frobenius_norm(delta))
        penalty = term if penalty is None else add(penalty, term)
    return add(ce, scale(penalty, reg_lambda))


# -- optimizer -----------------------------------------------------------------


@dataclass
class ParamSlot:
    name: str
    get: Callable[[], Matrix]
    set: Callable[[Matrix], None]


def _attr_slot(name: str, obj, attr: str) -> ParamSlot:
    return ParamSlot(name, lambda: getattr(obj, attr), lambda m: setattr(obj, attr, m))


def head_slots(head: ClassificationHead) -> list[ParamSlot]:
    return [_attr_slot("head.weight", head, "weight"), _attr_slot("head.bias", head, "bias")]


def adapter_head_slots(adapter: LoraAdapter, head: ClassificationHead) -> list[ParamSlot]:
    slots = []
    for p in adapter.targets:
        base = f"layer{p.layer_index}.{p.kind.slot}"
        slots.append(_attr_slot(base + ".A", p, "a"))
        slots.append(_attr_slot(base + ".B", p, "b"))
    return slots + head_slots(head)


def backbone_slots(backbone: Backbone, names: list[str]) -> list[ParamSlot]:
    """One slot per named backbone parameter, in the given order."""
    return [
        ParamSlot(name, lambda n=name: backbone.params[n], lambda m, n=name: backbone.set_param(n, m))
        for name in names
    ]


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


# -- the optimizer loop -----------------------------------------------------------


class Step(NamedTuple):
    lr: float
    grad_norm: float  # post-clip global norm
    loss: float


def warmup_step_count(n_examples: int, cfg: TrainConfig, epochs: int) -> int:
    """Warmup length: warmup_fraction of the planned number of optimizer steps."""
    return math.ceil(cfg.warmup_fraction * math.ceil(n_examples / cfg.batch_size) * epochs)


def fit(
    slots: list[ParamSlot],
    examples: list,
    loss_fn: Callable[[list], Matrix],
    cfg: TrainConfig,
    rng: Rng,
    epochs: int,
    end_epoch: Callable[[int, float], bool] | None = None,
) -> list[Step]:
    """Train the slots by minibatch Adam on loss_fn(batch); one Step per optimizer step.

    Each epoch visits the examples in the order drawn from rng.split("epoch<n>"),
    in batches of cfg.batch_size. Each step records loss_fn on a tape watching
    every slot, clips the global gradient norm to cfg.clip_norm and updates
    with the warmup learning rate. After each epoch, end_epoch(epoch, mean
    train loss) runs with no tape active and stops training by returning True.
    """
    adam = Adam(slots)
    warmup_steps = warmup_step_count(len(examples), cfg, epochs)
    steps: list[Step] = []
    for epoch in range(1, epochs + 1):
        order = rng.split(f"epoch{epoch}").permutation(len(examples))
        epoch_loss = 0.0
        for lo in range(0, len(order), cfg.batch_size):
            batch = [examples[int(i)] for i in order[lo : lo + cfg.batch_size]]
            lr = warmup_lr(len(steps) + 1, cfg.learning_rate, warmup_steps)
            with Tape() as tape:
                for s in slots:
                    tape.watch(s.get())
                loss = loss_fn(batch)
            grads = tape.backward(loss)
            garrs, norm = clip_gradients([grads[s.get()].data for s in slots], cfg.clip_norm)
            adam.step(garrs, lr)
            steps.append(Step(lr, norm, loss.item()))
            epoch_loss += loss.item() * len(batch)
        if end_epoch is not None and end_epoch(epoch, epoch_loss / len(examples)):
            break
    return steps


# -- classifier loss and evaluation ---------------------------------------------


def classifier_loss(
    backbone: Backbone, head: ClassificationHead, batch: list, adapter: LoraAdapter | None = None, reg_lambda: float = 0.0
) -> Matrix:
    """Mean cross-entropy of the head on a (tokens, label) batch, plus the adapter penalty if any.

    The adapter enters once, as its effective weights; the penalty reads the same delta nodes.
    """
    weights, deltas = effective_weights(backbone, adapter) if adapter is not None else (None, [])
    logits = head_forward(head, backbone.encode([t for t, _ in batch], weights))
    return total_loss(cross_entropy(logits, [y for _, y in batch]), deltas, reg_lambda)


def _eval_split(backbone, weights, head, examples) -> tuple[float, float]:
    """(mean CE, QWK) of a classifier with these effective weights on a tokenized split, by `score_tokens`."""
    probs = score_tokens(backbone, weights, head, [t for t, _ in examples])
    golds = np.array([label for _, label in examples], dtype=np.int64)
    picked = probs[np.arange(len(golds)), golds]
    loss = float(-np.log(np.maximum(picked, 1e-12)).sum()) / max(1, len(golds))
    with warnings.catch_warnings():  # a constant prediction makes QWK 0/0
        warnings.simplefilter("ignore", RuntimeWarning)
        agreement = qwk(golds, probs.argmax(axis=1), head.num_classes) if len(golds) else 0.0
    return loss, agreement


# -- trainers ----------------------------------------------------------------------


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
    adapter = new_adapter(dataset.task_id, bcfg, lcfg.rank, lcfg.alpha, rng=rng, precision=backbone.precision)
    head = new_head(dataset.task_id, dataset.num_classes, bcfg.d_model, rng, backbone.precision)
    slots = adapter_head_slots(adapter, head)
    stopper = EarlyStopper(cfg.patience)

    train_examples = [(tokenize(it.text, bcfg), it.score) for it in splits.train]
    val_examples = [(tokenize(it.text, bcfg), it.score) for it in splits.val]

    epoch_stats: list[EpochStats] = []
    best_snapshot = [s.get() for s in slots]

    def end_epoch(epoch: int, train_loss: float) -> bool:
        weights, _ = effective_weights(backbone, adapter)
        val_loss, val_qwk = _eval_split(backbone, weights, head, val_examples)
        epoch_stats.append(EpochStats(train_loss, val_loss, val_qwk))
        if stopper.update(epoch, val_loss):
            best_snapshot[:] = [s.get() for s in slots]
        return stopper.should_stop

    steps = fit(
        slots, train_examples,
        lambda batch: classifier_loss(backbone, head, batch, adapter, cfg.reg_lambda),
        cfg, rng, cfg.max_epochs, end_epoch,
    )
    for s, saved in zip(slots, best_snapshot):
        s.set(saved)

    final_norms = {
        f"layer{p.layer_index}.{p.kind.slot}": float(np.sqrt(np.sum(delta.data.astype(np.float64) ** 2)))
        for p, delta in zip(adapter.targets, effective_weights(backbone, adapter)[1])
    }
    module = TaskModule(adapter, head, backbone.frozen_fingerprint or "")
    report = TrainReport(
        task_id=dataset.task_id,
        epochs=epoch_stats,
        stopped_epoch=len(epoch_stats),
        best_epoch=stopper.best_epoch,
        final_delta_norms=final_norms,
        lr_schedule=[s.lr for s in steps],
        grad_norms=[s.grad_norm for s in steps],
        warmup_steps=warmup_step_count(len(train_examples), cfg, cfg.max_epochs),
        train_seconds=time.perf_counter() - t_begin,
    )
    return module, report


def pretrain_backbone(
    backbone: Backbone,
    sequences: list[TokenSeq],
    config: TrainConfig | None = None,
    epochs: int = 1,
) -> list[float]:
    """MLM pretraining of every backbone parameter; returns the per-step loss trace.

    Runs the fine-tuning optimizer loop (same config type); the caller decides
    when to freeze.
    """
    cfg = config or TrainConfig()
    if backbone.frozen:
        raise FrozenViolationError("cannot pretrain a frozen backbone")
    if not sequences:
        raise ContractError("empty pretraining corpus")
    rng = Rng(cfg.seed).split("pretrain")
    slots = backbone_slots(backbone, [name for name, _, _ in param_order(backbone.config)])
    steps = fit(slots, sequences, lambda batch: mlm_step(backbone, batch, rng), cfg, rng, epochs)
    return [s.loss for s in steps]
