"""Dense 2-D matrices, seeded randomness, and a reverse-mode gradient tape.

All weights, activations, and gradients in the engine are `Matrix` values:
immutable, row-major, float32 (P32) or float64 (P64). Differentiable
operations are free functions that record themselves on the thread-local
active `Tape` when one exists; with no active tape they are plain numpy and
cost nothing extra, which is the serving fast path.

Scalars produced by reductions (losses, norms) are 1x1 matrices so they stay
composable on the tape; use ``.item()`` to read them out.
"""

from __future__ import annotations

import enum
import itertools
import math
import threading
from typing import Callable, Iterable, Sequence

import numpy as np
from scipy.special import erf

from .errors import ContractError, ShapeError

__all__ = [
    "Precision",
    "P32",
    "P64",
    "Matrix",
    "matrix",
    "Rng",
    "Tape",
    "matmul",
    "add",
    "add_row",
    "scale",
    "transpose",
    "gelu",
    "softmax",
    "segment_attention",
    "layer_norm",
    "gather_rows",
    "slice_cols",
    "concat_rows",
    "concat_cols",
    "square",
    "sum_all",
    "mean_all",
    "frobenius_norm",
    "cross_entropy",
    "fnv1a64",
    "splitmix64",
]

LAYER_NORM_EPS = 1e-5


class Precision(enum.Enum):
    """Scalar width for matrix storage and arithmetic."""

    P32 = "f32"
    P64 = "f64"

    @property
    def dtype(self) -> np.dtype:
        return np.dtype(np.float32 if self is Precision.P32 else np.float64)

    @property
    def itemsize(self) -> int:
        return 4 if self is Precision.P32 else 8


P32 = Precision.P32
P64 = Precision.P64

_DTYPE_TO_PRECISION = {np.dtype(np.float32): P32, np.dtype(np.float64): P64}


class Matrix:
    """Immutable dense 2-D array of float32 or float64 scalars.

    Identity (not value) is what the tape tracks, so a Matrix can appear as a
    graph leaf or intermediate without any extra bookkeeping. The underlying
    numpy buffer is marked read-only; operations always allocate fresh output.
    """

    __slots__ = ("data",)

    def __init__(self, data: np.ndarray):
        if data.ndim != 2:
            raise ShapeError(f"Matrix requires a 2-D array, got ndim={data.ndim}")
        if data.dtype not in _DTYPE_TO_PRECISION:
            raise ContractError(f"unsupported dtype {data.dtype}; use float32 or float64")
        if data.shape[0] < 1 or data.shape[1] < 1:
            raise ShapeError(f"Matrix dimensions must be positive, got {data.shape}")
        if not data.flags.c_contiguous:
            data = np.ascontiguousarray(data)
        data.flags.writeable = False
        self.data = data

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def cols(self) -> int:
        return self.data.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self.data.shape

    @property
    def precision(self) -> Precision:
        return _DTYPE_TO_PRECISION[self.data.dtype]

    @classmethod
    def zeros(cls, rows: int, cols: int, precision: Precision = P32) -> "Matrix":
        return cls(np.zeros((rows, cols), dtype=precision.dtype))

    def item(self) -> float:
        if self.data.size != 1:
            raise ContractError(f"item() requires a 1x1 matrix, got {self.shape}")
        return float(self.data[0, 0])

    def tolist(self) -> list[list[float]]:
        return self.data.tolist()

    def tobytes(self) -> bytes:
        return self.data.astype("<" + self.data.dtype.str[1:]).tobytes()

    def __repr__(self) -> str:
        return f"Matrix({self.rows}x{self.cols}, {self.precision.name})"


def matrix(values: Sequence[Sequence[float]] | np.ndarray, precision: Precision = P32) -> Matrix:
    """Build a Matrix from nested sequences or an array, validating finiteness."""
    arr = np.array(values, dtype=precision.dtype)
    if arr.ndim == 1:
        arr = arr.reshape(1, -1)
    if arr.size and not np.isfinite(arr).all():
        raise ContractError("matrix values must all be finite")
    return Matrix(arr)


# -- Seeded randomness -------------------------------------------------------

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = 0xFFFFFFFFFFFFFFFF


def fnv1a64(data: bytes) -> int:
    """FNV-1a 64-bit hash; keys the RNG sub-streams and the tokenizer's word ids."""
    h = _FNV_OFFSET
    for b in data:
        h = ((h ^ b) * _FNV_PRIME) & _MASK64
    return h


def splitmix64(x: int) -> int:
    """One SplitMix64 step; the documented seed-mixing primitive."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


class Rng:
    """Seeded random generator with label-addressed sub-streams.

    The stream for ``rng.split(label)`` depends only on (seed, label), never
    on call order, so modules can be initialized in any order without
    perturbing each other's draws. Bit stream: PCG64 seeded with
    splitmix64(seed XOR fnv1a64(label)).
    """

    def __init__(self, seed: int):
        self.seed = seed & _MASK64
        self.gen = np.random.Generator(np.random.PCG64(self.seed))

    def split(self, label: str) -> "Rng":
        return Rng(splitmix64(self.seed ^ fnv1a64(label.encode("utf-8"))))

    def normal_matrix(self, rows: int, cols: int, std: float = 1.0, precision: Precision = P32) -> Matrix:
        draw = self.gen.normal(0.0, std, size=(rows, cols))
        return Matrix(draw.astype(precision.dtype))

    def integers(self, low: int, high: int, size: int | None = None):
        return self.gen.integers(low, high, size=size)

    def random(self) -> float:
        return float(self.gen.random())

    def poisson(self, lam: float) -> int:
        return int(self.gen.poisson(lam))

    def permutation(self, n: int) -> np.ndarray:
        return self.gen.permutation(n)

    def choice(self, seq: Sequence, size: int | None = None, replace: bool = True):
        return self.gen.choice(seq, size=size, replace=replace)

    def shuffle(self, items: list) -> None:
        self.gen.shuffle(items)


# -- Gradient tape ------------------------------------------------------------

_ACTIVE = threading.local()


def _tape() -> "Tape | None":
    return getattr(_ACTIVE, "tape", None)


class Tape:
    """Records primitive operations for reverse-mode differentiation.

    Use as a context manager around the forward pass; every differentiable
    op executed inside appends one node. ``backward`` replays nodes in exact
    reverse order, accumulating gradients additively, and returns one gradient
    per watched leaf (zeros for leaves the loss does not reach).
    """

    def __init__(self):
        # node = (out, [(tainted input, vjp), ...]); strong refs keep ids stable
        self._nodes: list[tuple[Matrix, list]] = []
        self._node_ids: set[int] = set()
        self._watched: dict[int, Matrix] = {}
        self._tainted: set[int] = set()

    def __enter__(self) -> "Tape":
        if _tape() is not None:
            raise ContractError("a tape is already active on this thread")
        _ACTIVE.tape = self
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        _ACTIVE.tape = None

    def watch(self, *leaves: Matrix) -> None:
        """Mark trainable leaves; call before the ops that consume them."""
        for m in leaves:
            self._watched[id(m)] = m
            self._tainted.add(id(m))

    def record(self, out: Matrix, inputs: tuple, vjps: tuple) -> None:
        # Only paths reaching a watched leaf participate in backward; inputs
        # outside those paths (frozen weights, constants) are pruned here.
        self._node_ids.add(id(out))
        tainted = self._tainted
        pairs = [(inp, vjp) for inp, vjp in zip(inputs, vjps) if id(inp) in tainted]
        if pairs:
            tainted.add(id(out))
            self._nodes.append((out, pairs))

    def backward(self, loss: Matrix) -> dict[Matrix, Matrix]:
        if id(loss) not in self._node_ids:
            raise ContractError("loss was not recorded on this tape")
        if loss.shape != (1, 1):
            raise ContractError(f"loss must be a 1x1 scalar node, got {loss.shape}")
        grads: dict[int, np.ndarray] = {id(loss): np.ones((1, 1), dtype=loss.data.dtype)}
        for out, pairs in reversed(self._nodes):
            g = grads.pop(id(out), None)
            if g is None:
                continue
            for inp, vjp in pairs:
                contrib = vjp(g)
                key = id(inp)
                prev = grads.get(key)
                if prev is None:
                    grads[key] = contrib
                else:
                    grads[key] = prev + contrib
        result: dict[Matrix, Matrix] = {}
        for key, leaf in self._watched.items():
            g = grads.get(key)
            if g is None:
                result[leaf] = Matrix.zeros(leaf.rows, leaf.cols, leaf.precision)
            else:
                result[leaf] = Matrix(np.ascontiguousarray(g, dtype=leaf.data.dtype))
        return result


def _record(out: Matrix, inputs: tuple, vjps: tuple) -> Matrix:
    t = _tape()
    if t is not None:
        t.record(out, inputs, vjps)
    return out


def _check_same_precision(a: Matrix, b: Matrix, op: str) -> None:
    if a.data.dtype != b.data.dtype:
        raise ContractError(f"{op}: mixed precision {a.precision.name} vs {b.precision.name}")


# -- Primitive operations -----------------------------------------------------


def matmul(a: Matrix, b: Matrix) -> Matrix:
    """Standard matrix product a @ b."""
    _check_same_precision(a, b, "matmul")
    if a.cols != b.rows:
        raise ShapeError(f"matmul: cannot multiply {a.rows}x{a.cols} by {b.rows}x{b.cols}")
    out = Matrix(a.data @ b.data)
    ad, bd = a.data, b.data
    return _record(out, (a, b), (lambda g: g @ bd.T, lambda g: ad.T @ g))


def add(a: Matrix, b: Matrix) -> Matrix:
    """Elementwise sum of two same-shape matrices."""
    _check_same_precision(a, b, "add")
    if a.shape != b.shape:
        raise ShapeError(f"add: shape mismatch {a.shape} vs {b.shape}")
    out = Matrix(a.data + b.data)
    return _record(out, (a, b), (lambda g: g, lambda g: g))


def add_row(a: Matrix, row: Matrix) -> Matrix:
    """Add a 1xK row vector to every row of a (bias broadcast)."""
    _check_same_precision(a, row, "add_row")
    if row.rows != 1 or row.cols != a.cols:
        raise ShapeError(f"add_row: row must be 1x{a.cols}, got {row.shape}")
    out = Matrix(a.data + row.data)
    return _record(out, (a, row), (lambda g: g, lambda g: g.sum(axis=0, keepdims=True)))


def scale(a: Matrix, c: float) -> Matrix:
    """Multiply every element by the constant c."""
    c = float(c)
    out = Matrix(a.data * np.asarray(c, dtype=a.data.dtype))
    return _record(out, (a,), (lambda g: g * c,))


def transpose(a: Matrix) -> Matrix:
    out = Matrix(np.ascontiguousarray(a.data.T))
    return _record(out, (a,), (lambda g: np.ascontiguousarray(g.T),))


def gelu(a: Matrix) -> Matrix:
    """Gaussian error linear unit, exact erf form; the VJP reuses the forward's normal CDF."""
    x = a.data
    cdf = 0.5 * (1.0 + erf(x * np.asarray(math.sqrt(0.5), dtype=x.dtype)))
    out = Matrix(x * cdf)

    def vjp(g: np.ndarray) -> np.ndarray:
        phi = np.exp(-0.5 * x * x) * (1.0 / math.sqrt(2.0 * math.pi))
        return g * (cdf + x * phi).astype(x.dtype)

    return _record(out, (a,), (vjp,))


def softmax(v: Matrix) -> Matrix:
    """Row-wise softmax with max-subtraction for stability; not differentiable, never on a tape.

    Training's loss takes logits (`cross_entropy`); `heads.class_probs` reports through this.
    """
    x = v.data
    e = np.exp(x - x.max(axis=1, keepdims=True))
    return Matrix(e / e.sum(axis=1, keepdims=True))


def segment_attention(q: Matrix, k: Matrix, v: Matrix, lengths: Sequence[int], n_heads: int) -> Matrix:
    """Multi-head scaled dot-product attention confined to row segments.

    q, k and v are packed (N x d) matrices whose rows are consecutive
    segments of the given lengths (one per sequence); a row attends only to
    the rows of its own segment. The columns split into ``n_heads`` equal
    head blocks, each with softmax(q_h k_h^T / sqrt(d/n_heads)) v_h, and the
    head outputs sit side by side in the (N x d) result.

    Each segment runs on (H, L, d/H) views of its own rows, so nothing is
    padded or masked. One tape node: the forward keeps each segment's softmax
    probabilities, and each VJP computes only its own input's gradient.
    """
    _check_same_precision(q, k, "segment_attention")
    _check_same_precision(q, v, "segment_attention")
    if not (q.shape == k.shape == v.shape):
        raise ShapeError(f"segment_attention: q {q.shape}, k {k.shape}, v {v.shape} differ")
    n, d = q.shape
    if n_heads < 1 or d % n_heads:
        raise ShapeError(f"segment_attention: {d} columns do not split into {n_heads} heads")
    lens = np.asarray(lengths, dtype=np.intp)
    if lens.ndim != 1 or lens.size == 0 or lens.min() < 1 or lens.sum() != n:
        raise ContractError(f"segment_attention: segment lengths must be positive and sum to {n} rows")
    dh = d // n_heads
    dtype = q.data.dtype
    c = np.asarray(1.0 / math.sqrt(dh), dtype=dtype)
    sizes = lens.tolist()
    segments = [slice(hi - ln, hi) for ln, hi in zip(sizes, itertools.accumulate(sizes))]

    def heads(a: np.ndarray, rows: slice) -> np.ndarray:  # (n, d) rows -> (H, L, dh); a view of a contiguous a
        return a[rows].reshape(-1, n_heads, dh).transpose(1, 0, 2)

    qd, kd, vd = q.data, k.data, v.data
    out = np.empty((n, d), dtype=dtype)
    probs = []
    for rows in segments:
        s = (heads(qd, rows) @ heads(kd, rows).transpose(0, 2, 1)) * c
        e = np.exp(s - s.max(axis=-1, keepdims=True))
        p = e / e.sum(axis=-1, keepdims=True)
        heads(out, rows)[...] = p @ heads(vd, rows)
        probs.append(p)

    def per_segment(grad: Callable) -> Callable[[np.ndarray], np.ndarray]:
        # grad(rows, p, g_h) is one segment's (H, L, dh) share of the gradient
        def vjp(g: np.ndarray) -> np.ndarray:
            acc = np.empty((n, d), dtype=dtype)
            for rows, p in zip(segments, probs):
                heads(acc, rows)[...] = grad(rows, p, heads(g, rows))
            return acc

        return vjp

    def score_grad(rows: slice, p: np.ndarray, gh: np.ndarray) -> np.ndarray:
        dp = gh @ heads(vd, rows).transpose(0, 2, 1)
        return p * (dp - (dp * p).sum(axis=-1, keepdims=True)) * c

    vjp_q = per_segment(lambda rows, p, gh: score_grad(rows, p, gh) @ heads(kd, rows))
    vjp_k = per_segment(lambda rows, p, gh: score_grad(rows, p, gh).transpose(0, 2, 1) @ heads(qd, rows))
    vjp_v = per_segment(lambda rows, p, gh: p.transpose(0, 2, 1) @ gh)
    return _record(Matrix(out), (q, k, v), (vjp_q, vjp_k, vjp_v))


def layer_norm(x: Matrix, gain: Matrix, bias: Matrix) -> Matrix:
    """Row-wise layer normalization: gain * (x - mean) / sqrt(var + LAYER_NORM_EPS) + bias."""
    _check_same_precision(x, gain, "layer_norm")
    _check_same_precision(x, bias, "layer_norm")
    if gain.shape != (1, x.cols) or bias.shape != (1, x.cols):
        raise ShapeError(
            f"layer_norm: gain/bias must be 1x{x.cols}, got {gain.shape} and {bias.shape}"
        )
    xd = x.data
    mu = xd.mean(axis=1, keepdims=True)
    var = xd.var(axis=1, keepdims=True)
    inv = 1.0 / np.sqrt(var + np.asarray(LAYER_NORM_EPS, dtype=xd.dtype))
    xhat = (xd - mu) * inv
    out = Matrix(xhat * gain.data + bias.data)
    gd = gain.data

    def vjp_x(g: np.ndarray) -> np.ndarray:
        gx = g * gd
        return inv * (gx - gx.mean(axis=1, keepdims=True) - xhat * (gx * xhat).mean(axis=1, keepdims=True))

    def vjp_gain(g: np.ndarray) -> np.ndarray:
        return (g * xhat).sum(axis=0, keepdims=True)

    def vjp_bias(g: np.ndarray) -> np.ndarray:
        return g.sum(axis=0, keepdims=True)

    return _record(out, (x, gain, bias), (vjp_x, vjp_gain, vjp_bias))


def gather_rows(a: Matrix, indices: Sequence[int]) -> Matrix:
    """Select rows by index (embedding lookup / masked-position pick)."""
    idx = np.asarray(indices, dtype=np.intp)
    if idx.ndim != 1 or idx.size == 0:
        raise ContractError("gather_rows: indices must be a non-empty 1-D sequence")
    if idx.min() < 0 or idx.max() >= a.rows:
        raise ContractError(f"gather_rows: index out of range for {a.rows} rows")
    out = Matrix(a.data[idx])
    rows, cols, dtype = a.rows, a.cols, a.data.dtype

    def vjp(g: np.ndarray) -> np.ndarray:
        acc = np.zeros((rows, cols), dtype=dtype)
        np.add.at(acc, idx, g)
        return acc

    return _record(out, (a,), (vjp,))


def slice_cols(a: Matrix, start: int, stop: int) -> Matrix:
    """Columns [start, stop) as a new matrix."""
    if not (0 <= start < stop <= a.cols):
        raise ShapeError(f"slice_cols: invalid range [{start}, {stop}) for {a.cols} columns")
    out = Matrix(np.ascontiguousarray(a.data[:, start:stop]))
    rows, cols, dtype = a.rows, a.cols, a.data.dtype

    def vjp(g: np.ndarray) -> np.ndarray:
        acc = np.zeros((rows, cols), dtype=dtype)
        acc[:, start:stop] = g
        return acc

    return _record(out, (a,), (vjp,))


def _concat(parts: Iterable[Matrix], axis: int) -> Matrix:
    parts = list(parts)
    if not parts:
        raise ContractError("concat: no parts")
    other = 1 - axis
    ref = parts[0]
    for p in parts[1:]:
        _check_same_precision(ref, p, "concat")
        if p.shape[other] != ref.shape[other]:
            raise ShapeError(f"concat: shape mismatch {p.shape} vs {ref.shape}")
    out = Matrix(np.concatenate([p.data for p in parts], axis=axis))
    sizes = [p.shape[axis] for p in parts]
    offsets = np.cumsum([0] + sizes)

    def make_vjp(i: int) -> Callable[[np.ndarray], np.ndarray]:
        lo, hi = offsets[i], offsets[i + 1]
        if axis == 0:
            return lambda g: g[lo:hi, :]
        return lambda g: g[:, lo:hi]

    return _record(out, tuple(parts), tuple(make_vjp(i) for i in range(len(parts))))


def concat_rows(parts: Iterable[Matrix]) -> Matrix:
    return _concat(parts, axis=0)


def concat_cols(parts: Iterable[Matrix]) -> Matrix:
    return _concat(parts, axis=1)


def square(a: Matrix) -> Matrix:
    out = Matrix(a.data * a.data)
    ad = a.data
    return _record(out, (a,), (lambda g: 2.0 * ad * g,))


def sum_all(a: Matrix) -> Matrix:
    out = Matrix(a.data.sum(dtype=a.data.dtype).reshape(1, 1))
    rows, cols, dtype = a.rows, a.cols, a.data.dtype
    return _record(out, (a,), (lambda g: np.full((rows, cols), g[0, 0], dtype=dtype),))


def mean_all(a: Matrix) -> Matrix:
    n = a.rows * a.cols
    out = Matrix((a.data.sum(dtype=a.data.dtype) / n).reshape(1, 1))
    rows, cols, dtype = a.rows, a.cols, a.data.dtype
    return _record(out, (a,), (lambda g: np.full((rows, cols), g[0, 0] / n, dtype=dtype),))


def frobenius_norm(m: Matrix) -> Matrix:
    """sqrt of the sum of squared elements, as a 1x1 scalar node."""
    norm = float(np.sqrt(np.sum(m.data.astype(np.float64) ** 2)))
    out = Matrix(np.asarray(norm, dtype=m.data.dtype).reshape(1, 1))
    md = m.data

    def vjp(g: np.ndarray) -> np.ndarray:
        if norm == 0.0:
            return np.zeros_like(md)
        return (g[0, 0] / norm) * md

    return _record(out, (m,), (vjp,))


def cross_entropy(logits: Matrix, labels: Sequence[int]) -> Matrix:
    """Mean softmax cross-entropy of logit rows against class indices, as one tape node.

    ``-(1/N) sum_i log softmax(logits)[i, labels[i]]``, from max-subtracted
    logits and summed in float64. ``labels`` holds one class index in [0, C)
    per row; they are constants (no gradient). The VJP is
    ``(softmax(logits) - onehot(labels)) / N``.
    """
    n, c = logits.shape
    y = np.asarray(labels)
    if y.shape != (n,) or y.dtype.kind not in "iu":
        raise ContractError(f"cross_entropy: need {n} integer class indices, got shape {y.shape} of {y.dtype}")
    if y.min() < 0 or y.max() >= c:
        raise ContractError(f"cross_entropy: class index out of range [0, {c})")
    x = logits.data
    shifted = x - x.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    sums = e.sum(axis=1, keepdims=True)
    rows = np.arange(n)
    total = (np.log(sums[:, 0]) - shifted[rows, y]).sum(dtype=np.float64) / n
    out = Matrix(np.asarray(total, dtype=x.dtype).reshape(1, 1))

    def vjp(g: np.ndarray) -> np.ndarray:
        grad = e / sums
        grad[rows, y] -= 1.0
        return grad * (g[0, 0] / n)

    return _record(out, (logits,), (vjp,))
