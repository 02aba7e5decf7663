"""Scored-response datasets: records, splits, and JSONL serialization."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

from .errors import ContractError
from .heads import MAX_CLASSES
from .numerics import Rng

MIN_SPLIT_ITEMS = 10
TRAIN_FRACTION = 0.8
VAL_FRACTION = 0.1


@dataclass(frozen=True)
class ScoredResponse:
    text: str
    score: int


@dataclass
class TaskDataset:
    task_id: str
    num_classes: int
    items: list[ScoredResponse]
    splits: "SplitView | None" = field(default=None)

    def __post_init__(self):
        for item in self.items:
            if not (0 <= item.score < self.num_classes):
                raise ContractError(
                    f"score {item.score} outside [0, {self.num_classes}) in task {self.task_id}"
                )


@dataclass(frozen=True)
class SplitView:
    train: tuple[ScoredResponse, ...]
    val: tuple[ScoredResponse, ...]
    test: tuple[ScoredResponse, ...]


def split_dataset(dataset: TaskDataset, seed: int):
    """Seeded 80/10/10 split; responses sharing a text stay in one split.

    Texts are grouped before shuffling so no text can leak across splits;
    with all-unique texts the sizes are exactly floor(0.8N) / floor(0.1N) /
    remainder. The computed split is also stored on the dataset.
    """
    n = len(dataset.items)
    if n < MIN_SPLIT_ITEMS:
        raise ContractError(f"need >= {MIN_SPLIT_ITEMS} items to split, got {n}")
    groups: dict[str, list[ScoredResponse]] = {}
    for item in dataset.items:
        groups.setdefault(item.text, []).append(item)
    keys = list(groups)
    order = Rng(seed).split(f"split/{dataset.task_id}").permutation(len(keys))
    train_target = math.floor(TRAIN_FRACTION * n)
    val_target = math.floor(VAL_FRACTION * n)
    train: list[ScoredResponse] = []
    val: list[ScoredResponse] = []
    test: list[ScoredResponse] = []
    for key_idx in order:
        bucket = groups[keys[int(key_idx)]]
        if len(train) < train_target:
            train.extend(bucket)
        elif len(val) < val_target:
            val.extend(bucket)
        else:
            test.extend(bucket)
    dataset.splits = SplitView(tuple(train), tuple(val), tuple(test))
    return train, val, test


def save_jsonl(dataset: TaskDataset, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for item in dataset.items:
            fh.write(json.dumps({"task": dataset.task_id, "text": item.text, "score": item.score}))
            fh.write("\n")


def load_jsonl(path: str) -> TaskDataset:
    """One task's responses (string text, JSON-integer score in [0, MAX_CLASSES), one string task).

    num_classes is max(score) + 1, at least 2.
    """
    items = []
    task_id = None
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
                text, score, task = rec["text"], rec["score"], rec["task"]
                if not isinstance(text, str) or type(score) is not int or not isinstance(task, str):
                    raise TypeError("text and task must be strings and score an integer")
                if not 0 <= score < MAX_CLASSES:
                    raise ValueError(f"score {score} outside [0, {MAX_CLASSES})")
                if task_id is not None and task != task_id:
                    raise ValueError(f"task {task!r} is not the file's task {task_id!r}")
            except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
                raise ContractError(f"{path}:{line_no}: bad dataset record ({exc})") from exc
            items.append(ScoredResponse(text=text, score=score))
            task_id = task
    if not items:
        raise ContractError(f"{path}: empty dataset")
    return TaskDataset(task_id=task_id, num_classes=max(2, max(item.score for item in items) + 1), items=items)
