"""Per-task low-rank adapters: creation, effective weights, merge, files.

An adapter patches the attention query and value projections of every
backbone layer with a rank-r update. `effective_weights` is the one place the
update is formed: it builds each patched weight as W + s * A @ B from tape
ops, and the encoder reads the result in place of the frozen weight, so
serving, training, validation and `merge` all run the same x @ W' forward and
the frozen backbone is never touched. Training records it on the tape each
step; `orchestrator.Registry`, the one place a task module meets a backbone
for scoring, derives it once with no tape when it admits the module. The
scale is s = alpha / r, and the adapter file stores (r, alpha).

The adapter body (task id, rank, alpha, patches) is written by one function,
`adapter_to_writer`, and read by one, `adapter_from_reader`. A standalone
adapter file (`MTLA`) frames it with its own magic, version and CRC; a task
module (`orchestrator.MODULE_MAGIC`) carries the same body as the first
section of its own single frame.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .backbone import Backbone, BackboneConfig
from .errors import FileFormatError, RankError, ShapeError
from .numerics import Matrix, P32, Precision, Rng, add, matmul, scale
from .serialize import Reader, Writer

ADAPTER_MAGIC = b"MTLA"
ADAPTER_VERSION = 1

DEFAULT_RANK = 8
DEFAULT_ALPHA = 16.0
INIT_STD = 0.02


@dataclass(frozen=True)
class LoraConfig:
    rank: int = DEFAULT_RANK
    alpha: float = DEFAULT_ALPHA


class TargetKind(enum.IntEnum):
    QUERY_PROJ = 0
    VALUE_PROJ = 1

    @property
    def slot(self) -> str:
        return "q" if self is TargetKind.QUERY_PROJ else "v"

    @property
    def weight_name(self) -> str:
        return "wq" if self is TargetKind.QUERY_PROJ else "wv"


@dataclass
class TargetPatch:
    layer_index: int
    kind: TargetKind
    a: Matrix  # d x r
    b: Matrix  # r x k

    @property
    def d(self) -> int:
        return self.a.rows

    @property
    def k(self) -> int:
        return self.b.cols

    @property
    def rank(self) -> int:
        return self.a.cols


@dataclass
class LoraAdapter:
    task_id: str
    rank: int
    alpha: float
    targets: list[TargetPatch]

    def __post_init__(self):
        for p in self.targets:
            if p.a.cols != self.rank or p.b.rows != self.rank:
                raise RankError(f"patch rank {p.a.cols}x{p.b.rows} disagrees with adapter rank {self.rank}")

    def delta_scale(self) -> float:
        return self.alpha / self.rank

    def param_count(self) -> int:
        return sum(p.d * self.rank + self.rank * p.k for p in self.targets)

    def param_bytes(self) -> int:
        return sum(
            (p.d * self.rank) * p.a.precision.itemsize + (self.rank * p.k) * p.b.precision.itemsize
            for p in self.targets
        )


def new_adapter(
    task_id: str,
    backbone_config: BackboneConfig,
    r: int = DEFAULT_RANK,
    alpha: float = DEFAULT_ALPHA,
    rng: Rng | None = None,
    precision: Precision = P32,
) -> LoraAdapter:
    """Fresh adapter: A ~ N(0, 0.02), B = 0, one patch per (layer, Q/V).

    B = 0 makes the adapter an exact no-op until trained.
    """
    d = backbone_config.d_model
    if r < 1:
        raise RankError(f"rank must be >= 1, got {r}")
    if r > d:
        raise RankError(f"rank {r} exceeds min target dimension {d}")
    rng = rng if rng is not None else Rng(backbone_config.seed)
    patches = []
    for layer in range(backbone_config.n_layers):
        for kind in (TargetKind.QUERY_PROJ, TargetKind.VALUE_PROJ):
            stream = rng.split(f"adapter/{task_id}/layer{layer}/{kind.name}/A")
            patches.append(
                TargetPatch(
                    layer_index=layer,
                    kind=kind,
                    a=stream.normal_matrix(d, r, std=INIT_STD, precision=precision),
                    b=Matrix.zeros(r, d, precision),
                )
            )
    return LoraAdapter(task_id=task_id, rank=r, alpha=float(alpha), targets=patches)


def _check_dims(backbone: Backbone, adapter: LoraAdapter) -> None:
    d = backbone.config.d_model
    for p in adapter.targets:
        if p.layer_index >= backbone.config.n_layers:
            raise ShapeError(f"patch targets layer {p.layer_index}, backbone has {backbone.config.n_layers}")
        if p.d != d or p.k != d:
            raise ShapeError(f"patch is {p.d}x{p.k}, backbone weights are {d}x{d}")


def effective_weights(backbone: Backbone, adapter: LoraAdapter) -> tuple[dict[str, Matrix], list[Matrix]]:
    """(weight name -> W + s * A @ B for each patched weight, the s * A @ B terms in target order).

    The terms are tape ops (matmul, scale, add): under an active tape A and B
    get their gradients through every x @ W' that reads the weights, and the
    regularizer reads the same s * A @ B nodes; with no tape they are plain
    numpy. A zero B gives W' equal to W bit for bit.
    """
    _check_dims(backbone, adapter)
    s = adapter.delta_scale()
    weights: dict[str, Matrix] = {}
    deltas: list[Matrix] = []
    for p in adapter.targets:
        name = f"layer{p.layer_index}.{p.kind.weight_name}"
        delta = scale(matmul(p.a, p.b), s)
        weights[name] = add(backbone.params[name], delta)
        deltas.append(delta)
    return weights, deltas


def merge(backbone: Backbone, adapter: LoraAdapter) -> Backbone:
    """Clone of the backbone with each patched weight replaced by W + s * A @ B."""
    merged = backbone.clone()
    merged.params.update(effective_weights(backbone, adapter)[0])
    if backbone.frozen:
        merged.freeze()
    return merged


# -- adapter file I/O ----------------------------------------------------------


def adapter_to_writer(w: Writer, adapter: LoraAdapter) -> None:
    """The adapter body: task id, rank, alpha, then each patch. Adapter files and task modules both carry it."""
    w.str16(adapter.task_id)
    w.u16(adapter.rank)
    w.f64(adapter.alpha)
    w.u16(len(adapter.targets))
    for p in sorted(adapter.targets, key=lambda p: (p.layer_index, int(p.kind))):
        w.u16(p.layer_index)
        w.u8(int(p.kind))
        w.u32(p.d)
        w.u32(p.k)
        w.array(p.a.data, "<f4")
        w.array(p.b.data, "<f4")


def adapter_to_bytes(adapter: LoraAdapter) -> bytes:
    w = Writer(ADAPTER_MAGIC, ADAPTER_VERSION)
    adapter_to_writer(w, adapter)
    return w.finish()


def adapter_from_reader(r: Reader, precision: Precision = P32) -> LoraAdapter:
    """Parse the adapter body at the reader's position; the frame around it is already checked."""
    task_id = r.str16()
    rank = r.u16()
    alpha = r.f64()
    count = r.u16()
    patches = []
    for _ in range(count):
        layer = r.u16()
        kind_code = r.u8()
        if kind_code not in (0, 1):
            raise FileFormatError(f"unknown patch target kind {kind_code}")
        d = r.u32()
        k = r.u32()
        a = r.array(d * rank, "<f4").reshape(d, rank).astype(precision.dtype)
        b = r.array(rank * k, "<f4").reshape(rank, k).astype(precision.dtype)
        patches.append(TargetPatch(layer, TargetKind(kind_code), Matrix(a), Matrix(b)))
    return LoraAdapter(task_id=task_id, rank=rank, alpha=alpha, targets=patches)


def save_adapter(adapter: LoraAdapter, path: str) -> None:
    with open(path, "wb") as fh:
        fh.write(adapter_to_bytes(adapter))


def load_adapter(path: str, precision: Precision = P32) -> LoraAdapter:
    with open(path, "rb") as fh:
        r = Reader(fh.read(), ADAPTER_MAGIC, ADAPTER_VERSION)
    adapter = adapter_from_reader(r, precision)
    r.finish()
    return adapter
