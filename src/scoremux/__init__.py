"""Multi-task short-answer scoring over one frozen backbone with per-task low-rank adapters.

The package splits into:

- ``numerics``: dense matrices, seeded RNG, reverse-mode gradient tape
- ``backbone``: hash tokenizer, transformer encoder, MLM pretraining, checkpoints
- ``adapters``: low-rank task adapters (effective weights W + s·A·B, merge, files)
- ``heads``: per-task classification heads
- ``data``: scored-response datasets, 80/10/10 splits, JSONL
- ``trainer``: one optimizer loop (Adam, warmup, clipping) for fine-tuning with early
  stopping, MLM pretraining and the full-model baseline
- ``orchestrator``: task-module files, LRU registry (the one admission path), scoring, serving
- ``evalkit``: QWK / accuracy / macro-F1, paired t-test, eval reports
- ``workbench``: synthetic task generator, efficiency benchmark
- ``cli``: the ``scoremux`` command
"""

from . import errors
from .adapters import (
    LoraAdapter,
    LoraConfig,
    TargetKind,
    TargetPatch,
    effective_weights,
    load_adapter,
    merge,
    new_adapter,
    save_adapter,
)
from .backbone import (
    Backbone,
    BackboneConfig,
    TokenSeq,
    load_backbone,
    mlm_step,
    save_backbone,
    tokenize,
)
from .data import ScoredResponse, SplitView, TaskDataset, load_jsonl, save_jsonl, split_dataset
from .evalkit import EvalReport, accuracy, evaluate, macro_f1, paired_t_test, qwk
from .heads import ClassificationHead, head_forward, new_head, predict
from .numerics import Matrix, P32, P64, Precision, Rng, Tape, cross_entropy, matrix
from .orchestrator import (
    Registry,
    ScoreResult,
    StdioTransport,
    TaskModule,
    TcpTransport,
    load_task_module,
    save_task_module,
    score,
    serve,
)
from .trainer import TrainConfig, TrainReport, pretrain_backbone, total_loss, train_task
from .workbench import BenchReport, TaskSpec, default_specs, generate_tasks, run_benchmark

__version__ = "0.1.0"

__all__ = [
    "errors",
    # numerics
    "Matrix", "matrix", "Precision", "P32", "P64", "Rng", "Tape", "cross_entropy",
    # backbone
    "Backbone", "BackboneConfig", "TokenSeq", "tokenize",
    "mlm_step", "save_backbone", "load_backbone",
    # adapters
    "LoraAdapter", "LoraConfig", "TargetKind", "TargetPatch",
    "new_adapter", "effective_weights", "merge", "save_adapter", "load_adapter",
    # heads
    "ClassificationHead", "new_head", "head_forward", "predict",
    # data
    "ScoredResponse", "TaskDataset", "SplitView", "split_dataset", "save_jsonl", "load_jsonl",
    # trainer
    "TrainConfig", "TrainReport", "train_task", "pretrain_backbone", "total_loss",
    # orchestrator
    "TaskModule", "Registry", "ScoreResult", "score", "serve",
    "StdioTransport", "TcpTransport", "save_task_module", "load_task_module",
    # evalkit
    "qwk", "accuracy", "macro_f1", "paired_t_test", "evaluate", "EvalReport",
    # workbench
    "TaskSpec", "BenchReport", "default_specs", "generate_tasks", "run_benchmark",
    "__version__",
]
