"""Frozen shared transformer encoder: tokenizer, forward pass, MLM pretraining.

A Backbone is a small post-LN transformer encoder (BERT-style) whose
parameters live in a single name-keyed table. Once frozen it is immutable
and shareable; a forward pass may read some weights from a caller's
name -> weight map in place of the table's.

The forward pass runs on a packed batch: the sequences' rows are stacked
into one (sum of lengths x d_model) matrix, so each projection, FFN and
layer norm is one 2-D op per layer for the whole batch, and attention is one
`segment_attention` op that attends each sequence on its own rows, with no
padding or mask. A single sequence is a batch of one.

Tokenization is a deterministic surrogate for a learned subword vocabulary:
lowercase, split on whitespace/punctuation, then FNV-1a-64 hash each token
into the non-reserved id space.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import re
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import ContractError, FrozenViolationError, ShapeError
from .numerics import (
    Matrix,
    P32,
    Precision,
    Rng,
    add,
    add_row,
    cross_entropy,
    fnv1a64,
    gather_rows,
    gelu,
    layer_norm,
    matmul,
    segment_attention,
)
from .serialize import Reader, Writer

PAD_ID = 0
CLS_ID = 1
MASK_ID = 2
UNK_ID = 3
RESERVED_IDS = 4

MASK_FRACTION = 0.15

CHECKPOINT_MAGIC = b"MTBB"
CHECKPOINT_VERSION = 1

_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)


@dataclass(frozen=True)
class BackboneConfig:
    vocab_size: int = 1000
    d_model: int = 64
    n_layers: int = 2
    n_heads: int = 4
    d_ff: int = 128
    max_seq_len: int = 64
    seed: int = 0

    def __post_init__(self):
        if self.d_model % self.n_heads != 0:
            raise ContractError(f"d_model {self.d_model} not divisible by n_heads {self.n_heads}")
        if self.vocab_size <= RESERVED_IDS:
            raise ContractError(f"vocab_size must exceed {RESERVED_IDS} reserved ids")
        for name in ("vocab_size", "d_model", "n_layers", "n_heads", "d_ff", "max_seq_len"):
            if getattr(self, name) < 1:
                raise ContractError(f"{name} must be positive")


@dataclass(frozen=True)
class TokenSeq:
    ids: tuple[int, ...]
    truncated: bool = field(default=False, compare=False)

    def __post_init__(self):
        if not self.ids or self.ids[0] != CLS_ID:
            raise ContractError("token sequence must start with CLS")

    def __len__(self) -> int:
        return len(self.ids)


def tokenize(text: str, config: BackboneConfig) -> TokenSeq:
    """Hash-tokenize text: CLS + FNV-1a word ids, truncated to max_seq_len."""
    span = config.vocab_size - RESERVED_IDS
    words = _TOKEN_RE.findall(text.lower())
    kept = words[: config.max_seq_len - 1]
    ids = [CLS_ID] + [RESERVED_IDS + fnv1a64(w.encode("utf-8")) % span for w in kept]
    return TokenSeq(tuple(ids), truncated=len(kept) < len(words))


def param_order(config: BackboneConfig) -> list[tuple[str, int, int]]:
    """Canonical (name, rows, cols) listing; fixes checkpoint and hash order."""
    order = [
        ("tok_emb", config.vocab_size, config.d_model),
        ("pos_emb", config.max_seq_len, config.d_model),
    ]
    d, f = config.d_model, config.d_ff
    for i in range(config.n_layers):
        p = f"layer{i}."
        order += [
            (p + "wq", d, d), (p + "bq", 1, d),
            (p + "wk", d, d), (p + "bk", 1, d),
            (p + "wv", d, d), (p + "bv", 1, d),
            (p + "wo", d, d), (p + "bo", 1, d),
            (p + "ln1.gain", 1, d), (p + "ln1.bias", 1, d),
            (p + "w1", d, f), (p + "b1", 1, f),
            (p + "w2", f, d), (p + "b2", 1, d),
            (p + "ln2.gain", 1, d), (p + "ln2.bias", 1, d),
        ]
    order.append(("mlm_head", config.d_model, config.vocab_size))
    return order


def _init_params(config: BackboneConfig, precision: Precision) -> dict[str, Matrix]:
    rng = Rng(config.seed).split("backbone")
    params: dict[str, Matrix] = {}
    for name, rows, cols in param_order(config):
        if name.endswith(".gain"):
            m = Matrix(np.ones((rows, cols), dtype=precision.dtype))
        elif name.startswith(("layer",)) and name.split(".")[-1].startswith("b"):
            m = Matrix.zeros(rows, cols, precision)
        else:
            m = rng.split(name).normal_matrix(rows, cols, std=0.02, precision=precision)
        params[name] = m
    return params


class Backbone:
    """Transformer encoder with a name-keyed parameter table.

    Weight matrices act by right-multiplication (x @ W). Given no table, every
    parameter is initialized from a label-addressed substream of the config
    seed, so the initialization is independent of construction order
    elsewhere; a given table (a checkpoint's, a clone's) is used as is.
    """

    def __init__(
        self, config: BackboneConfig, precision: Precision = P32, params: dict[str, Matrix] | None = None
    ):
        self.config = config
        self.precision = precision
        self.frozen = False
        self.frozen_fingerprint: str | None = None
        self.params: dict[str, Matrix] = params if params is not None else _init_params(config, precision)

    def set_param(self, name: str, value: Matrix) -> None:
        if self.frozen:
            raise FrozenViolationError("backbone is frozen; parameters are immutable")
        current = self.params[name]
        if value.shape != current.shape:
            raise ShapeError(f"parameter {name}: expected {current.shape}, got {value.shape}")
        self.params[name] = value

    def fingerprint(self) -> str:
        """SHA-256 over all parameter bytes in canonical order."""
        h = hashlib.sha256()
        for name, _, _ in param_order(self.config):
            h.update(self.params[name].tobytes())
        return h.hexdigest()

    def param_count(self) -> int:
        """Parameters a deployed scorer ships: every matrix but the MLM head, which only pretraining reads."""
        return sum(rows * cols for name, rows, cols in param_order(self.config) if name != "mlm_head")

    def param_bytes(self) -> int:
        return self.param_count() * self.precision.itemsize

    # -- forward -------------------------------------------------------------

    def hidden_states(self, batch: Sequence[TokenSeq], weights: dict[str, Matrix] | None = None) -> Matrix:
        """Final hidden rows of a packed batch: (sum of lengths) x d_model.

        Row blocks follow the batch order; each sequence attends only to its
        own rows, so its block does not depend on the other sequences. Each
        entry of `weights` is read in place of the parameter of that name.
        """
        cfg = self.config
        if not batch:
            raise ContractError("empty batch: at least one token sequence is required")
        lengths = [len(tokens) for tokens in batch]
        for n in lengths:
            if n > cfg.max_seq_len:
                raise ContractError(f"sequence length {n} exceeds max_seq_len {cfg.max_seq_len}")
        ids = list(itertools.chain.from_iterable(tokens.ids for tokens in batch))
        if min(ids) < 0 or max(ids) >= cfg.vocab_size:
            t = next(t for t in ids if not (0 <= t < cfg.vocab_size))
            raise ContractError(f"token id {t} out of range [0, {cfg.vocab_size})")
        starts = np.cumsum(lengths) - lengths
        positions = np.arange(len(ids)) - np.repeat(starts, lengths)
        p = self.params if not weights else self.params | weights
        x = add(gather_rows(p["tok_emb"], ids), gather_rows(p["pos_emb"], positions))
        for i in range(cfg.n_layers):
            pre = f"layer{i}."
            q = add_row(matmul(x, p[pre + "wq"]), p[pre + "bq"])
            k = add_row(matmul(x, p[pre + "wk"]), p[pre + "bk"])
            v = add_row(matmul(x, p[pre + "wv"]), p[pre + "bv"])
            ctx = segment_attention(q, k, v, lengths, cfg.n_heads)
            attended = add_row(matmul(ctx, p[pre + "wo"]), p[pre + "bo"])
            x = layer_norm(add(x, attended), p[pre + "ln1.gain"], p[pre + "ln1.bias"])
            ff = add_row(matmul(gelu(add_row(matmul(x, p[pre + "w1"]), p[pre + "b1"])), p[pre + "w2"]), p[pre + "b2"])
            x = layer_norm(add(x, ff), p[pre + "ln2.gain"], p[pre + "ln2.bias"])
        return x

    def encode(self, tokens: TokenSeq | Sequence[TokenSeq], weights: dict[str, Matrix] | None = None) -> Matrix:
        """CLS-position final hidden rows, one per sequence in order.

        One TokenSeq gives 1 x d_model; a sequence of B of them runs as one
        packed batch and gives B x d_model. `weights` is as in `hidden_states`.
        """
        batch = [tokens] if isinstance(tokens, TokenSeq) else list(tokens)
        hidden = self.hidden_states(batch, weights)
        lengths = [len(t) for t in batch]
        return gather_rows(hidden, np.cumsum(lengths) - lengths)

    def clone(self) -> "Backbone":
        """Unfrozen copy sharing the (immutable) parameter matrices."""
        return Backbone(self.config, self.precision, dict(self.params))

    # -- freezing ------------------------------------------------------------

    def freeze(self) -> "Backbone":
        self.frozen = True
        self.frozen_fingerprint = self.fingerprint()
        return self


def mask_positions(tokens: TokenSeq, rng: Rng) -> list[int]:
    """Positions to mask: ceil(15%) of non-reserved positions, at least one."""
    candidates = [i for i, t in enumerate(tokens.ids) if t >= RESERVED_IDS]
    if not candidates:
        return []
    n_mask = max(1, math.ceil(MASK_FRACTION * len(candidates)))
    picked = rng.choice(candidates, size=n_mask, replace=False)
    return sorted(int(i) for i in picked)


def mlm_step(backbone: Backbone, batch: list[TokenSeq], rng: Rng) -> Matrix:
    """Masked-token cross-entropy, averaged over all masked positions.

    The masked copies of the batch run as one packed forward. Differentiable
    through every backbone parameter when a tape is active; the optimizer
    update is the caller's job (see trainer.pretrain_backbone).
    """
    if backbone.frozen:
        raise FrozenViolationError("cannot run MLM on a frozen backbone")
    if not batch:
        raise ContractError("mlm_step: empty batch")
    masked: list[TokenSeq] = []
    rows: list[int] = []  # masked positions as rows of the packed batch
    targets: list[int] = []
    offset = 0
    for tokens in batch:
        positions = mask_positions(tokens, rng)
        if not positions:
            continue
        masked_ids = list(tokens.ids)
        for pos in positions:
            targets.append(masked_ids[pos])
            masked_ids[pos] = MASK_ID
            rows.append(offset + pos)
        masked.append(TokenSeq(tuple(masked_ids)))
        offset += len(masked_ids)
    if not masked:
        raise ContractError("mlm_step: no maskable (non-reserved) positions in batch")
    hidden = backbone.hidden_states(masked)
    logits = matmul(gather_rows(hidden, rows), backbone.params["mlm_head"])
    return cross_entropy(logits, targets)


# -- checkpoint I/O -----------------------------------------------------------


def save_backbone(bb: Backbone, path: str) -> None:
    """MTBB checkpoint: config block, parameters in canonical order, CRC32."""
    w = Writer(CHECKPOINT_MAGIC, CHECKPOINT_VERSION)
    cfg = bb.config
    for v in (cfg.vocab_size, cfg.d_model, cfg.n_layers, cfg.n_heads, cfg.d_ff, cfg.max_seq_len):
        w.u32(v)
    w.u64(cfg.seed)
    w.u8(1 if bb.frozen else 0)
    w.u8(32 if bb.precision is P32 else 64)
    dtype = "<f4" if bb.precision is P32 else "<f8"
    for name, _, _ in param_order(cfg):
        w.array(bb.params[name].data, dtype)
    with open(path, "wb") as fh:
        fh.write(w.finish())


def load_backbone(path: str) -> Backbone:
    with open(path, "rb") as fh:
        data = fh.read()
    r = Reader(data, CHECKPOINT_MAGIC, CHECKPOINT_VERSION)
    vocab, d_model, n_layers, n_heads, d_ff, max_seq = (r.u32() for _ in range(6))
    cfg = BackboneConfig(
        vocab_size=vocab, d_model=d_model, n_layers=n_layers,
        n_heads=n_heads, d_ff=d_ff, max_seq_len=max_seq, seed=r.u64(),
    )
    frozen = r.u8() == 1
    bits = r.u8()
    if bits not in (32, 64):
        raise ContractError(f"checkpoint precision byte must be 32 or 64, got {bits}")
    precision = P32 if bits == 32 else Precision.P64
    dtype = "<f4" if bits == 32 else "<f8"
    params = {
        name: Matrix(r.array(rows * cols, dtype).reshape(rows, cols).astype(precision.dtype))
        for name, rows, cols in param_order(cfg)
    }
    r.finish()
    bb = Backbone(cfg, precision, params)
    if frozen:
        bb.freeze()
    return bb
