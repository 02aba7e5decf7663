"""Synthetic multi-task corpus generation and the efficiency workbench.

The generator emulates a pool of short-answer scoring tasks: per-class keyword
vocabularies with difficulty-controlled overlap, response lengths Poisson
around 20 words, near-balanced labels, and (for medium/hard) 5% label noise
imitating human-rater disagreement. The benchmark quantifies the structural
advantage of one shared backbone + tiny task modules over per-task full
models: exact shape-derived byte totals plus measured task-switch latency.
"""

from __future__ import annotations

import json
import math
import os
import statistics
import time
from dataclasses import asdict, dataclass, field

from .backbone import Backbone, load_backbone, tokenize
from .data import ScoredResponse, TaskDataset, save_jsonl, split_dataset
from .errors import BenchError, ContractError
from .evalkit import evaluate, paired_t_test
from .heads import MAX_CLASSES, MIN_CLASSES, new_head
from .numerics import Rng
from .orchestrator import Registry, load_task_module, score
from .trainer import TrainConfig, _eval_split, backbone_slots, classifier_loss, fit, head_slots

MEAN_RESPONSE_WORDS = 20
MIN_RESPONSE_WORDS = 3
LABEL_NOISE = 0.05
CLASS_POOL_SIZE = 25
FILLER_POOL_SIZE = 40
KEYWORD_RATE = 0.55

SHARED_VOCAB_FRACTION = {"easy": 0.0, "medium": 0.3, "hard": 0.6}

_CONSONANTS = "bdfgklmnprstvz"
_VOWELS = "aeiou"


@dataclass(frozen=True)
class TaskSpec:
    task_id: str
    num_classes: int = 3
    n_items: int = 1000
    difficulty: str = "easy"
    seed: int = 0

    def __post_init__(self):
        if not (MIN_CLASSES <= self.num_classes <= MAX_CLASSES):
            raise ContractError(f"num_classes must be in [{MIN_CLASSES}, {MAX_CLASSES}], got {self.num_classes}")
        if self.n_items < 10 * self.num_classes:
            raise ContractError(f"n_items must be >= 10 * num_classes, got {self.n_items}")
        if self.difficulty not in SHARED_VOCAB_FRACTION:
            raise ContractError(f"unknown difficulty {self.difficulty!r}")


def default_specs(n_tasks: int = 27, n_items: int = 1000, seed: int = 0) -> list[TaskSpec]:
    """Easy/medium mix with class counts cycling 2..6."""
    return [
        TaskSpec(
            task_id=f"T{i:02d}",
            num_classes=2 + i % 5,
            n_items=n_items,
            difficulty="easy" if i % 2 == 0 else "medium",
            seed=seed,
        )
        for i in range(n_tasks)
    ]


def _make_word(rng: Rng) -> str:
    syllables = 2 + int(rng.integers(0, 3))
    return "".join(
        _CONSONANTS[int(rng.integers(0, len(_CONSONANTS)))] + _VOWELS[int(rng.integers(0, len(_VOWELS)))]
        for _ in range(syllables)
    )


def _word_pool(rng: Rng, size: int, taken: set[str]) -> list[str]:
    pool = []
    while len(pool) < size:
        w = _make_word(rng)
        if w not in taken:
            taken.add(w)
            pool.append(w)
    return pool


def keyword_pools(spec: TaskSpec) -> tuple[list[list[str]], list[str]]:
    """(per-class keyword pools, filler pool); overlap set by difficulty."""
    rng = Rng(spec.seed).split(f"gen/{spec.task_id}")
    taken: set[str] = set()
    filler = _word_pool(rng.split("filler"), FILLER_POOL_SIZE, taken)
    shared_n = int(round(SHARED_VOCAB_FRACTION[spec.difficulty] * CLASS_POOL_SIZE))
    shared = _word_pool(rng.split("shared"), shared_n, taken)
    pools = []
    for c in range(spec.num_classes):
        unique = _word_pool(rng.split(f"class{c}"), CLASS_POOL_SIZE - shared_n, taken)
        pools.append(unique + shared)
    return pools, filler


def generate_task(spec: TaskSpec) -> TaskDataset:
    """One task's scored responses; deterministic per (task_id, seed)."""
    rng = Rng(spec.seed).split(f"gen/{spec.task_id}")
    pools, filler = keyword_pools(spec)
    draw = rng.split("items")

    base = spec.n_items // spec.num_classes
    labels = []
    for c in range(spec.num_classes):
        labels.extend([c] * base)
    extras = list(draw.permutation(spec.num_classes))[: spec.n_items - len(labels)]
    labels.extend(int(c) for c in extras)
    draw.shuffle(labels)

    noisy = set()
    if SHARED_VOCAB_FRACTION[spec.difficulty] > 0.0:
        n_noise = int(round(LABEL_NOISE * spec.n_items))
        noisy = set(int(i) for i in draw.choice(range(spec.n_items), size=n_noise, replace=False))

    items = []
    seen: set[str] = set()
    for i, true_label in enumerate(labels):
        words = []
        n_words = max(MIN_RESPONSE_WORDS, draw.poisson(MEAN_RESPONSE_WORDS))
        for _ in range(n_words):
            if draw.random() < KEYWORD_RATE:
                pool = pools[true_label]
            else:
                pool = filler
            words.append(pool[int(draw.integers(0, len(pool)))])
        text = " ".join(words)
        while text in seen:  # keep texts unique so splits stay leak-free
            text = text + " " + _make_word(draw)
        seen.add(text)
        label = true_label
        if i in noisy:
            label = (true_label + 1 + int(draw.integers(0, spec.num_classes - 1))) % spec.num_classes
        items.append(ScoredResponse(text, label))
    return TaskDataset(spec.task_id, spec.num_classes, items)


def generate_tasks(specs: list[TaskSpec], out_dir: str | None = None):
    """All tasks plus the dataset manifest; optionally written as JSONL files."""
    ids = [s.task_id for s in specs]
    if len(set(ids)) != len(ids):
        raise ContractError("duplicate task ids in specs")
    datasets = [generate_task(s) for s in specs]
    manifest = {
        "tasks": [
            {"id": ds.task_id, "num_classes": ds.num_classes, "path": f"{ds.task_id}.jsonl"}
            for ds in datasets
        ]
    }
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        for ds in datasets:
            save_jsonl(ds, os.path.join(out_dir, f"{ds.task_id}.jsonl"))
        with open(os.path.join(out_dir, "manifest.json"), "w", encoding="utf-8") as fh:
            json.dump(manifest, fh, indent=2)
    return datasets, manifest


# -- efficiency benchmark --------------------------------------------------------


@dataclass
class BenchReport:
    backbone_param_bytes: int
    module_bytes: list[int]
    baseline_total_bytes: int
    framework_total_bytes: int
    capacity: int
    framework_switch_us: dict
    baseline_switch_us: dict
    memory_reduction_fraction: float
    latency_reduction_fraction: float
    workload: dict = field(default_factory=dict)
    accuracy_gap: dict = field(default_factory=dict)

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2)  # keys in field order


def _percentiles(samples_us: list[int]) -> dict:
    ordered = sorted(samples_us)
    p95 = ordered[min(len(ordered) - 1, math.ceil(0.95 * len(ordered)) - 1)]
    return {"median_us": int(statistics.median(ordered)), "p95_us": int(p95), "n": len(ordered)}


def run_benchmark(
    backbone: Backbone,
    module_paths: dict[str, str],
    backbone_checkpoint: str,
    workload: list[tuple[str, str]] | None = None,
    capacity: int = 4,
    switches: int = 110,
    warmup_discard: int = 10,
) -> BenchReport:
    """Byte accounting plus measured switch latency, framework vs baseline.

    Framework switch: `Registry.ensure_loaded` on a fresh one-slot registry, a
    miss doing what a served miss does: read the module file, check its backbone
    fingerprint (BackboneMismatchError), derive its effective weights, insert it.
    Baseline switch: reload a full backbone checkpoint (checked once to hold the
    scored backbone) plus the task's head, simulating one fully fine-tuned model
    per task. Each reloaded model is held until the next switch replaces it, as
    a registry slot holds a resident model; the timing depends on that memory
    state: dropping each model at once moved the baseline median from about 2.5
    to 4.1 ms on perfbench's fixture files.
    Byte totals are exact shape-derived parameter bytes (MLM head excluded: a
    deployed scorer does not ship it).
    """
    if switches <= warmup_discard:
        raise ContractError("switches must exceed warmup_discard")
    task_ids = sorted(module_paths)
    for tid in task_ids:
        if not os.path.exists(module_paths[tid]):
            raise BenchError(f"missing module file for task {tid!r}: {module_paths[tid]}")
    if load_backbone(backbone_checkpoint).fingerprint() != backbone.fingerprint():
        raise BenchError(f"checkpoint {backbone_checkpoint} does not hold the scored backbone's weights")

    modules = {tid: load_task_module(module_paths[tid], backbone.precision) for tid in task_ids}
    backbone_bytes = backbone.param_bytes(include_mlm_head=False)
    module_bytes = [modules[tid].param_bytes() for tid in task_ids]
    head_bytes = [modules[tid].head.param_bytes() for tid in task_ids]
    baseline_total = sum(backbone_bytes + hb for hb in head_bytes)
    framework_total = backbone_bytes + sum(module_bytes)

    fw_samples: list[int] = []
    bl_samples: list[int] = []
    for i in range(switches):
        tid = task_ids[i % len(task_ids)]
        registry = Registry(capacity=1)
        registry.register(tid, module_paths[tid])
        t0 = time.perf_counter_ns()
        registry.ensure_loaded(tid, backbone)
        fw_samples.append((time.perf_counter_ns() - t0) // 1000)

        t0 = time.perf_counter_ns()
        full_model = load_backbone(backbone_checkpoint)  # held until the next switch replaces it, like a registry slot
        load_task_module(module_paths[tid], backbone.precision)  # baseline still ships a head
        bl_samples.append((time.perf_counter_ns() - t0) // 1000)
    fw_samples = fw_samples[warmup_discard:]
    bl_samples = bl_samples[warmup_discard:]
    fw_stats = _percentiles(fw_samples)
    bl_stats = _percentiles(bl_samples)

    workload_stats: dict = {}
    if workload:
        registry = Registry(capacity=capacity)
        for tid in task_ids:
            registry.register(tid, module_paths[tid])
        responses = [score(registry, backbone, tid, text) for tid, text in workload]
        stats = registry.stats
        workload_stats = {
            "requests": len(workload),
            "responses": len(responses),
            "hits": stats.hits,
            "misses": stats.misses,
            "loads": stats.loads,
            "evictions": stats.evictions,
            "load_time_us": stats.load_time_us,
            "compute_time_us": stats.compute_time_us,
        }

    return BenchReport(
        backbone_param_bytes=backbone_bytes,
        module_bytes=module_bytes,
        baseline_total_bytes=baseline_total,
        framework_total_bytes=framework_total,
        capacity=capacity,
        framework_switch_us=fw_stats,
        baseline_switch_us=bl_stats,
        memory_reduction_fraction=1.0 - framework_total / baseline_total,
        latency_reduction_fraction=1.0 - fw_stats["median_us"] / max(1, bl_stats["median_us"]),
        workload=workload_stats,
    )


# -- optional full-model baseline (accuracy-gap comparison) ----------------------


def train_full_baseline(backbone: Backbone, dataset: TaskDataset, config: TrainConfig | None = None):
    """Fine-tune an unfrozen backbone clone + head on one task; returns (head, test_qwk).

    The per-task fully fine-tuned reference the efficiency comparison simulates
    by artifact size; this trains a real one at desk scale, with the same
    optimizer loop and cross-entropy as the task modules, minus the adapter.
    """
    cfg = config or TrainConfig()
    clone = backbone.clone()
    if dataset.splits is None:
        split_dataset(dataset, cfg.seed)
    splits = dataset.splits
    head = new_head(dataset.task_id, dataset.num_classes, clone.config.d_model, Rng(cfg.seed), clone.precision)
    # classifier_loss never reads the MLM head, so Adam gets no slot for it
    slots = backbone_slots(clone, [n for n in sorted(clone.params) if n != "mlm_head"]) + head_slots(head)

    def examples(items):
        return [(tokenize(it.text, clone.config), it.score) for it in items]

    fit(
        slots, examples(splits.train), lambda batch: classifier_loss(clone, head, batch),
        cfg, Rng(cfg.seed).split("baseline"), cfg.max_epochs,
    )
    _, agreement = _eval_split(clone, None, head, examples(splits.test), cfg.batch_size)
    return head, agreement


def accuracy_gap_comparison(
    backbone: Backbone,
    module_paths: dict[str, str],
    datasets: dict[str, TaskDataset],
    n_tasks: int,
    config: TrainConfig | None = None,
) -> dict:
    """Test-split QWK of saved framework modules vs freshly trained full models.

    Scores each saved module with `evaluate` through a one-slot registry, so a
    module trained against another backbone is refused as in serving. Trains
    one real fully fine-tuned baseline per task (first n_tasks), then pairs the
    two per-task QWK vectors with a t-test when n_tasks >= 2.
    """
    cfg = config or TrainConfig()
    tasks = sorted(module_paths)[:n_tasks]
    registry = Registry(capacity=1)
    framework_qwk = []
    baseline_qwk = []
    for tid in tasks:
        registry.register(tid, module_paths[tid])
        ds = datasets[tid]
        if ds.splits is None:
            split_dataset(ds, cfg.seed)
        framework_qwk.append(evaluate(registry, backbone, tid, ds.splits.test).qwk)
        _, bl = train_full_baseline(backbone, ds, cfg)
        baseline_qwk.append(bl)
    result = {"tasks": tasks, "framework_qwk": framework_qwk, "baseline_qwk": baseline_qwk}
    if len(tasks) >= 2:
        t, p = paired_t_test(framework_qwk, baseline_qwk)
        result["t"] = t if math.isfinite(t) else ("inf" if t > 0 else "-inf")
        result["p"] = p
    return result
