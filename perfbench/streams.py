"""Seeded request streams and training inputs for the three workloads.

Answers come from `workbench.default_specs` and `generate_task`, using each
task's test split, so the texts have the generator's length profile (about
21 tokens, at most 46). The serve workloads draw from the test answers of the
tasks the fixture modules were trained on, so a served label can be compared
with the gold score; the workload seed picks the order of tasks and answers
and where the bad and long lines go.
"""

from __future__ import annotations

import itertools
import json
import zlib
from dataclasses import dataclass

import numpy as np

from scoremux.data import split_dataset
from scoremux.workbench import default_specs, generate_task

N_TASKS = 27
ITEMS_PER_TASK = 1000
CAPACITY = 4
HOT_TASKS = ["T00", "T01", "T02", "T03"]  # 2 to 5 classes, easy and medium
MIX_WINDOW = 8  # requests the serve-mix client keeps outstanding
ZIPF_S = 1.0
MALFORMED_SHARE = 0.01
UNKNOWN_SHARE = 0.01
LONG_SHARE = 0.05
MAX_SEQ_WORDS = 64  # BackboneConfig.max_seq_len: a long answer has more words than this

OK, MALFORMED, UNKNOWN = "ok", "malformed", "unknown"


@dataclass(frozen=True)
class Request:
    rid: int
    kind: str
    task: str
    text: str
    line: bytes
    gold: int | None = None  # the answer's score, for a single well-formed answer


def task_ids() -> list[str]:
    return [s.task_id for s in default_specs(N_TASKS, ITEMS_PER_TASK)]


def datasets(tids: list[str], seed: int) -> dict:
    """The generated, split dataset of each named task."""
    specs = {s.task_id: s for s in default_specs(N_TASKS, ITEMS_PER_TASK, seed=seed)}
    out = {}
    for tid in tids:
        ds = generate_task(specs[tid])
        split_dataset(ds, seed)
        out[tid] = ds
    return out


def test_answers(tids: list[str], seed: int) -> dict[str, list]:
    """Each task's test split, as `ScoredResponse` items."""
    return {tid: list(ds.splits.test) for tid, ds in datasets(tids, seed).items()}


def _rng(seed: int, label: str) -> np.random.Generator:
    return np.random.default_rng([seed, zlib.crc32(label.encode())])


def request(rid: int, task: str, text: str, kind: str = OK, gold: int | None = None) -> Request:
    line = json.dumps({"id": rid, "task": task, "text": text})
    if kind == MALFORMED:  # cut inside the text string: not valid JSON
        line = line[:-12]
    return Request(rid, kind, task, text, (line + "\n").encode(), gold)


def uniform(answers: dict[str, list], seed: int, label: str):
    """Endless stream, uniform over the given tasks and their answers."""
    rng = _rng(seed, label)
    tids = sorted(answers)
    for rid in itertools.count():
        tid = tids[int(rng.integers(0, len(tids)))]
        item = answers[tid][int(rng.integers(0, len(answers[tid])))]
        yield request(rid, tid, item.text, gold=item.score)


def zipf_weights(n: int, s: float = ZIPF_S) -> np.ndarray:
    w = 1.0 / np.arange(1, n + 1) ** s
    return w / w.sum()


def mixed(answers: dict[str, list], seed: int):
    """Endless stream: Zipf task popularity in task order, with bad lines and long answers."""
    rng = _rng(seed, "mix")
    by_rank = sorted(answers)
    weights = zipf_weights(len(by_rank))
    for rid in itertools.count():
        tid = by_rank[int(rng.choice(len(by_rank), p=weights))]
        pool = answers[tid]
        item = pool[int(rng.integers(0, len(pool)))]
        u = rng.random()
        if u < MALFORMED_SHARE:
            yield request(rid, tid, item.text, MALFORMED)
        elif u < MALFORMED_SHARE + UNKNOWN_SHARE:
            yield request(rid, f"X{tid}", item.text, UNKNOWN)
        elif u < MALFORMED_SHARE + UNKNOWN_SHARE + LONG_SHARE:
            parts = [item.text]
            while sum(len(p.split()) for p in parts) <= MAX_SEQ_WORDS:
                parts.append(pool[int(rng.integers(0, len(pool)))].text)
            yield request(rid, tid, " ".join(parts))
        else:
            yield request(rid, tid, item.text, gold=item.score)
