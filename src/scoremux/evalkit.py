"""Agreement metrics (QWK, accuracy, macro-F1), paired t-test, eval reports.

The metrics are pure functions of label lists; the only I/O is the JSON
eval-report document. The paired t-test's two-sided p-value comes from SciPy's
Student t CDF (`scipy.special.stdtr`). `evaluate` scores a test split with
`orchestrator.score_tokens`, whose rows pass through `heads.predict` as served
answers do, on the module the registry admits; like serving, it refuses a
module trained against another backbone.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np
from scipy.special import stdtr

from .backbone import tokenize
from .errors import ContractError
from .orchestrator import score_tokens


def _validate_labels(golds: Sequence[int], preds: Sequence[int], num_classes: int) -> None:
    if num_classes < 2:
        raise ContractError(f"num_classes must be >= 2, got {num_classes}")
    if len(golds) != len(preds):
        raise ContractError(f"length mismatch: {len(golds)} golds vs {len(preds)} preds")
    if len(golds) == 0:
        raise ContractError("empty label lists")
    for v in (*golds, *preds):
        if not (0 <= int(v) < num_classes):
            raise ContractError(f"label {v} outside [0, {num_classes})")


def confusion_matrix(golds: Sequence[int], preds: Sequence[int], num_classes: int) -> np.ndarray:
    _validate_labels(golds, preds, num_classes)
    m = np.zeros((num_classes, num_classes), dtype=np.int64)
    for g, p in zip(golds, preds):
        m[int(g), int(p)] += 1
    return m


def qwk(golds: Sequence[int], preds: Sequence[int], num_classes: int) -> float:
    """Quadratic weighted kappa: 1 - sum(w*O) / sum(w*E).

    w_ij = (i-j)^2 / (C-1)^2; E is the outer product of the two marginal
    histograms scaled so its entries sum to N. A zero expected-disagreement
    denominator (single identical class on both sides) is defined as 1.0.
    """
    observed = confusion_matrix(golds, preds, num_classes)
    n = len(golds)
    idx = np.arange(num_classes, dtype=np.float64)
    w = (idx[:, None] - idx[None, :]) ** 2 / (num_classes - 1) ** 2
    expected = np.outer(observed.sum(axis=1), observed.sum(axis=0)) / n
    denom = float((w * expected).sum())
    if denom == 0.0:
        warnings.warn("degenerate QWK (single identical class); defining agreement as 1.0", RuntimeWarning)
        return 1.0
    return 1.0 - float((w * observed).sum()) / denom


def accuracy(golds: Sequence[int], preds: Sequence[int]) -> float:
    if len(golds) != len(preds):
        raise ContractError(f"length mismatch: {len(golds)} golds vs {len(preds)} preds")
    if len(golds) == 0:
        raise ContractError("empty label lists")
    return sum(int(g) == int(p) for g, p in zip(golds, preds)) / len(golds)


def macro_f1(golds: Sequence[int], preds: Sequence[int], num_classes: int) -> float:
    """Unweighted mean of per-class F1; classes absent from both lists are skipped."""
    m = confusion_matrix(golds, preds, num_classes)
    scores = []
    for c in range(num_classes):
        tp = m[c, c]
        support = m[c, :].sum()
        predicted = m[:, c].sum()
        if support == 0 and predicted == 0:
            continue
        precision = tp / predicted if predicted else 0.0
        recall = tp / support if support else 0.0
        scores.append(2 * precision * recall / (precision + recall) if precision + recall else 0.0)
    return float(np.mean(scores)) if scores else 0.0


# -- paired t-test -------------------------------------------------------------


def student_t_two_sided_p(t: float, df: int) -> float:
    """Two-sided tail probability of Student's t with df degrees of freedom."""
    return float(2.0 * stdtr(df, -abs(t)))


def paired_t_test(a: Sequence[float], b: Sequence[float]) -> tuple[float, float]:
    """(t statistic, two-sided p) for paired samples; sample sd, df = n-1.

    Zero-variance differences degenerate deterministically: all-zero -> (0, 1);
    identical nonzero -> (+/-inf, 0). Differences, or a mean or sd of them,
    that overflow the float64 range raise ContractError.
    """
    if len(a) != len(b):
        raise ContractError(f"length mismatch: {len(a)} vs {len(b)}")
    if len(a) < 2:
        raise ContractError("paired t-test needs at least 2 pairs")
    with np.errstate(over="ignore", invalid="ignore"):
        d = np.asarray(a, dtype=np.float64) - np.asarray(b, dtype=np.float64)
        mean = float(d.mean())
        sd = float(d.std(ddof=1))
    if not (np.isfinite(d).all() and math.isfinite(mean) and math.isfinite(sd)):
        raise ContractError("paired t-test: the differences, their mean or their sd overflow float64")
    n = len(d)
    if sd == 0.0:
        if mean == 0.0:
            return 0.0, 1.0
        return math.copysign(math.inf, mean), 0.0
    t = mean / (sd / math.sqrt(n))
    return t, student_t_two_sided_p(t, n - 1)


# -- evaluation over a registry ------------------------------------------------


@dataclass(frozen=True)
class EvalReport:
    task_id: str
    n_test: int
    qwk: float
    accuracy: float
    macro_f1: float
    confusion: tuple[tuple[int, ...], ...]

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2)  # keys in field order


def evaluate(registry, backbone, task_id: str, test_split) -> EvalReport:
    """Score the test split with the registry's module by `score_tokens` and assemble all metrics."""
    if not test_split:
        raise ContractError("empty test split")
    module, weights = registry.ensure_loaded(task_id, backbone)
    tokens = [tokenize(item.text, backbone.config) for item in test_split]
    preds = score_tokens(backbone, weights, module.head, tokens).argmax(axis=1)
    golds = [item.score for item in test_split]
    num_classes = module.head.num_classes
    m = confusion_matrix(golds, preds, num_classes)
    return EvalReport(
        task_id=task_id,
        n_test=len(golds),
        qwk=qwk(golds, preds, num_classes),
        accuracy=accuracy(golds, preds),
        macro_f1=macro_f1(golds, preds, num_classes),
        confusion=tuple(tuple(int(x) for x in row) for row in m),
    )
