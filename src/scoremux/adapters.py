"""Per-task low-rank adapters: creation, attach (unmerged path), merge, files.

An adapter patches the attention query and value projections of every
backbone layer with a rank-r update. The unmerged serving path computes
x @ W + s * (x @ A) @ B per patched weight, so the frozen backbone is never
touched; merge() bakes s * A @ B into a cloned weight table for callers who
want the single-matmul path. The scale is s = alpha / r, and the adapter
file stores (r, alpha).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .backbone import Backbone, BackboneConfig, TokenSeq
from .errors import ContractError, FileFormatError, RankError, ShapeError
from .numerics import Matrix, P32, Precision, Rng
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
    _by_slot: dict[tuple[int, str], TargetPatch] = field(init=False, repr=False)

    def __post_init__(self):
        for p in self.targets:
            if p.a.cols != self.rank or p.b.rows != self.rank:
                raise RankError(f"patch rank {p.a.cols}x{p.b.rows} disagrees with adapter rank {self.rank}")
        self._by_slot = {(p.layer_index, p.kind.slot): p for p in self.targets}

    def delta_scale(self) -> float:
        return self.alpha / self.rank

    def patch_for(self, layer_index: int, slot: str) -> TargetPatch | None:
        return self._by_slot.get((layer_index, slot))

    def delta_matrix(self, patch: TargetPatch) -> np.ndarray:
        return self.delta_scale() * (patch.a.data @ patch.b.data)

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


@dataclass(frozen=True)
class AdaptedModel:
    """Read-only composite of a frozen backbone and one adapter (unmerged path)."""

    backbone: Backbone
    adapter: LoraAdapter

    @property
    def config(self) -> BackboneConfig:
        return self.backbone.config

    def encode(self, tokens: TokenSeq) -> Matrix:
        return self.backbone.encode(tokens, self.adapter)


def _check_dims(backbone: Backbone, adapter: LoraAdapter) -> None:
    d = backbone.config.d_model
    for p in adapter.targets:
        if p.layer_index >= backbone.config.n_layers:
            raise ShapeError(f"patch targets layer {p.layer_index}, backbone has {backbone.config.n_layers}")
        if p.d != d or p.k != d:
            raise ShapeError(f"patch is {p.d}x{p.k}, backbone weights are {d}x{d}")


def attach(backbone: Backbone, adapter: LoraAdapter) -> AdaptedModel:
    if not backbone.frozen:
        raise ContractError("attach requires a frozen backbone")
    _check_dims(backbone, adapter)
    return AdaptedModel(backbone=backbone, adapter=adapter)


def _shift(backbone: Backbone, adapter: LoraAdapter, sign: float) -> Backbone:
    _check_dims(backbone, adapter)
    shifted = backbone.clone()
    for p in adapter.targets:
        name = f"layer{p.layer_index}.{p.kind.weight_name}"
        w = shifted.params[name]
        shifted.params[name] = Matrix(w.data + sign * adapter.delta_matrix(p).astype(w.data.dtype))
    if backbone.frozen:
        shifted.freeze()
    return shifted


def merge(backbone: Backbone, adapter: LoraAdapter) -> Backbone:
    """Clone of the backbone with each patched weight replaced by W + delta."""
    return _shift(backbone, adapter, 1.0)


def unmerge(merged: Backbone, adapter: LoraAdapter) -> Backbone:
    """Inverse of merge on the same adapter: subtracts each delta."""
    return _shift(merged, adapter, -1.0)


# -- adapter file I/O ----------------------------------------------------------


def adapter_to_bytes(adapter: LoraAdapter) -> bytes:
    w = Writer(ADAPTER_MAGIC, ADAPTER_VERSION)
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
    return w.finish()


def adapter_from_reader(r: Reader, precision: Precision = P32) -> LoraAdapter:
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


def adapter_from_bytes(data: bytes, precision: Precision = P32) -> LoraAdapter:
    """Parse a whole adapter file image: header, body and checksum trailer."""
    r = Reader(data, ADAPTER_MAGIC, ADAPTER_VERSION)
    adapter = adapter_from_reader(r, precision)
    r.finish()
    return adapter


def save_adapter(adapter: LoraAdapter, path: str) -> None:
    with open(path, "wb") as fh:
        fh.write(adapter_to_bytes(adapter))


def load_adapter(path: str, precision: Precision = P32) -> LoraAdapter:
    with open(path, "rb") as fh:
        return adapter_from_bytes(fh.read(), precision)
