"""Per-task classification head: logits = h @ W^T + b, probabilities by softmax.

`head_forward` is the differentiable logits op that training records on the
tape. `class_probs` is the one function that turns hidden rows into the class
probabilities the program reports: served answers (`predict`, its one-row
case), validation, `evaluate` and the baseline comparison all read it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError, ShapeError
from .numerics import Matrix, P32, Precision, Rng, add_row, matmul, softmax, transpose

MIN_CLASSES = 2
MAX_CLASSES = 6
INIT_STD = 0.02


@dataclass
class ClassificationHead:
    weight: Matrix  # num_classes x d_model
    bias: Matrix    # 1 x num_classes

    def __post_init__(self):
        if not (MIN_CLASSES <= self.num_classes <= MAX_CLASSES):
            raise ContractError(
                f"num_classes must be in [{MIN_CLASSES}, {MAX_CLASSES}], got {self.num_classes}"
            )
        if self.bias.shape != (1, self.num_classes):
            raise ShapeError(f"head bias {self.bias.shape} disagrees with C={self.num_classes}")

    @property
    def num_classes(self) -> int:
        return self.weight.rows

    @property
    def d_model(self) -> int:
        return self.weight.cols

    def param_count(self) -> int:
        return self.num_classes * self.d_model + self.num_classes

    def param_bytes(self) -> int:
        return self.weight.rows * self.weight.cols * self.weight.precision.itemsize + (
            self.bias.cols * self.bias.precision.itemsize
        )


def new_head(
    task_id: str,
    num_classes: int,
    d_model: int,
    rng: Rng | None = None,
    precision: Precision = P32,
) -> ClassificationHead:
    """Weight ~ N(0, 0.02), bias zero; `task_id` labels the RNG stream the weight is drawn from."""
    stream = (rng if rng is not None else Rng(0)).split(f"head/{task_id}")
    return ClassificationHead(
        weight=stream.normal_matrix(num_classes, d_model, std=INIT_STD, precision=precision),
        bias=Matrix.zeros(1, num_classes, precision),
    )


def head_forward(head: ClassificationHead, h: Matrix) -> Matrix:
    """Affine logits for a batch of hiddens (rows); differentiable."""
    if h.cols != head.d_model:
        raise ShapeError(f"hidden width {h.cols} != head d_model {head.d_model}")
    return add_row(matmul(h, transpose(head.weight)), head.bias)


def class_probs(head: ClassificationHead, h: Matrix) -> np.ndarray:
    """B x C float64 class probabilities for a batch of hiddens (rows); not differentiable.

    The float32 logits are widened to float64 before the max-subtracted
    softmax. Non-finite logits (a corrupt module) raise ContractError.
    """
    z = head_forward(head, h).data.astype(np.float64)
    if not np.isfinite(z).all():
        raise ContractError("class_probs: non-finite logits")
    return softmax(Matrix(z)).data


def predict(head: ClassificationHead, h: Matrix) -> tuple[int, np.ndarray]:
    """(argmax label, probabilities) for a single hidden vector.

    Ties break to the lowest class index.
    """
    if h.rows != 1:
        raise ShapeError(f"predict expects a single 1 x d hidden, got {h.shape}")
    probs = class_probs(head, h)[0]
    return int(np.argmax(probs)), probs
