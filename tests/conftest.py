"""Shared test helpers: finite-difference oracles, gradient comparison, a plain-numpy encoder."""

from __future__ import annotations

import math

import numpy as np
import pytest

from scoremux.numerics import Matrix, P64, Tape


def fd_grad(f, mats: list[Matrix], wrt: int, h: float = 1e-5) -> np.ndarray:
    """Central finite-difference gradient of the scalar f(mats) wrt mats[wrt].

    Evaluates f as a black box (no tape), so it stays independent of the
    reverse-mode path it is used to check. P64 inputs expected.
    """
    arrs = [m.data.astype(np.float64).copy() for m in mats]
    target = arrs[wrt]
    grad = np.zeros_like(target)
    it = np.nditer(target, flags=["multi_index"])
    for _ in it:
        ij = it.multi_index
        orig = target[ij]
        target[ij] = orig + h
        fp = f([Matrix(a.copy()) for a in arrs]).item()
        target[ij] = orig - h
        fm = f([Matrix(a.copy()) for a in arrs]).item()
        target[ij] = orig
        grad[ij] = (fp - fm) / (2.0 * h)
    return grad


def analytic_grads(f, mats: list[Matrix]) -> list[np.ndarray]:
    """Reverse-mode gradients of the scalar f(mats) wrt every input."""
    with Tape() as tape:
        tape.watch(*mats)
        loss = f(mats)
    grads = tape.backward(loss)
    return [grads[m].data for m in mats]


def assert_grad_close(analytic: np.ndarray, numeric: np.ndarray, tol: float = 1e-4) -> None:
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-4)
    err = np.abs(analytic - numeric) / denom
    assert err.max() <= tol, f"max relative gradient error {err.max():.3e} > {tol}"


def gradcheck(f, mats: list[Matrix], tol: float = 1e-4, h: float = 1e-5) -> None:
    """Check reverse-mode gradients of f against central finite differences."""
    assert all(m.precision is P64 for m in mats), "gradcheck requires P64 inputs"
    ana = analytic_grads(f, mats)
    for i in range(len(mats)):
        assert_grad_close(ana[i], fd_grad(f, mats, i, h=h), tol=tol)


def straight_line_encode(bb, ids: tuple[int, ...], adapter=None) -> np.ndarray:
    """Plain-numpy float64 re-implementation of one forward pass; no tape, no ops.

    An adapter enters per row, as the unmerged LoRA path: each patched
    projection is x @ W + s * (x @ A) @ B, never forming W + s * A @ B.
    Returns the CLS row.
    """
    cfg = bb.config
    p = {k: m.data.astype(np.float64) for k, m in bb.params.items()}
    patches = {}
    if adapter is not None:
        s = adapter.alpha / adapter.rank
        for t in adapter.targets:
            a, b = t.a.data.astype(np.float64), t.b.data.astype(np.float64)
            patches[f"layer{t.layer_index}.{t.kind.weight_name}"] = (a, b, s)
    n = len(ids)
    x = p["tok_emb"][list(ids)] + p["pos_emb"][:n]
    dh = cfg.d_model // cfg.n_heads

    def project(v, name, bias):
        out = v @ p[name] + p[bias]
        if name in patches:
            a, b, s = patches[name]
            out = out + s * ((v @ a) @ b)
        return out

    def ln(v, gain, bias):
        mu = v.mean(axis=1, keepdims=True)
        var = v.var(axis=1, keepdims=True)
        return (v - mu) / np.sqrt(var + 1e-5) * gain + bias

    def row_softmax(s):
        e = np.exp(s - s.max(axis=1, keepdims=True))
        return e / e.sum(axis=1, keepdims=True)

    erf = np.vectorize(math.erf)
    for i in range(cfg.n_layers):
        pre = f"layer{i}."
        q = project(x, pre + "wq", pre + "bq")
        k = project(x, pre + "wk", pre + "bk")
        v = project(x, pre + "wv", pre + "bv")
        parts = []
        for h in range(cfg.n_heads):
            sl = slice(h * dh, (h + 1) * dh)
            scores = q[:, sl] @ k[:, sl].T / math.sqrt(dh)
            parts.append(row_softmax(scores) @ v[:, sl])
        attended = np.concatenate(parts, axis=1) @ p[pre + "wo"] + p[pre + "bo"]
        x = ln(x + attended, p[pre + "ln1.gain"], p[pre + "ln1.bias"])
        hidden = x @ p[pre + "w1"] + p[pre + "b1"]
        hidden = 0.5 * hidden * (1.0 + erf(hidden / math.sqrt(2.0)))
        x = ln(x + hidden @ p[pre + "w2"] + p[pre + "b2"], p[pre + "ln2.gain"], p[pre + "ln2.bias"])
    return x[0]


def misloaded_bit_flips(raw: bytes, path, load, offsets=None) -> list[tuple[int, int, str]]:
    """(offset, bit, outcome) for each flip of bit 0x01 or 0x40 of `raw` that `load(path)` does not refuse
    with a FileFormatError; outcome is the exception's type name, or "loaded". Every byte by default."""
    from scoremux.errors import FileFormatError

    wrong = []
    for offset in range(len(raw)) if offsets is None else offsets:
        for bit in (0x01, 0x40):
            bad = bytearray(raw)
            bad[offset] ^= bit
            path.write_bytes(bytes(bad))
            try:
                load(str(path))
                wrong.append((offset, bit, "loaded"))
            except FileFormatError:
                pass
            except Exception as exc:  # ShapeError, ContractError, RankError, MemoryError, ...
                wrong.append((offset, bit, type(exc).__name__))
    return wrong


@pytest.fixture
def rng():
    return np.random.default_rng(20240901)
