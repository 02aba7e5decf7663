"""Matrix ops, softmax/norm contracts, and tape-vs-finite-difference checks."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scoremux.errors import ContractError, ShapeError
from scoremux.numerics import (
    Matrix,
    P32,
    P64,
    Rng,
    Tape,
    add,
    add_row,
    concat_cols,
    concat_rows,
    cross_entropy,
    frobenius_norm,
    gather_rows,
    gelu,
    layer_norm,
    matmul,
    matrix,
    mean_all,
    scale,
    segment_attention,
    slice_cols,
    softmax,
    square,
    sum_all,
    transpose,
)

from conftest import gradcheck


def rand_matrix(rng, rows, cols, precision=P64, scl=1.0):
    return Matrix((rng.standard_normal((rows, cols)) * scl).astype(precision.dtype))


class TestMatmul:
    def test_identity_left(self, rng):
        m = rand_matrix(rng, 2, 2, P32)
        out = matmul(Matrix(np.eye(2, dtype=np.float32)), m)
        np.testing.assert_array_equal(out.data, m.data)

    def test_hand_computed_outer_product(self):
        # 2x1 @ 1x2: each output element is a single product, done by hand
        a = matrix([[1.0], [0.0]])
        b = matrix([[0.0, 2.0]])
        out = matmul(a, b)
        assert out.tolist() == [[0.0, 2.0], [0.0, 0.0]]

    def test_shape_mismatch_names_both_shapes(self, rng):
        a = rand_matrix(rng, 3, 4, P32)
        b = rand_matrix(rng, 3, 4, P32)
        with pytest.raises(ShapeError, match=r"3x4.*3x4"):
            matmul(a, b)

    def test_mixed_precision_rejected(self, rng):
        with pytest.raises(ContractError, match="precision"):
            matmul(rand_matrix(rng, 2, 2, P32), rand_matrix(rng, 2, 2, P64))

    def test_associativity_p32(self, rng):
        for _ in range(20):
            a = rand_matrix(rng, 4, 3, P32)
            b = rand_matrix(rng, 3, 5, P32)
            c = rand_matrix(rng, 5, 2, P32)
            left = matmul(matmul(a, b), c).data
            right = matmul(a, matmul(b, c)).data
            np.testing.assert_allclose(left, right, atol=1e-4)

    def test_recorded_on_active_tape(self, rng):
        a = rand_matrix(rng, 2, 3)
        b = rand_matrix(rng, 3, 2)
        with Tape() as tape:
            tape.watch(a)
            out = matmul(a, b)
            loss = sum_all(out)
        grads = tape.backward(loss)
        assert grads[a].shape == a.shape
        assert np.abs(grads[a].data).sum() > 0


class TestSoftmax:
    def test_matrix_rows_sum_to_one_p32(self, rng):
        m = rand_matrix(rng, 5, 7, P32, scl=10.0)
        out = softmax(m)
        np.testing.assert_allclose(out.data.sum(axis=1), np.ones(5), atol=1e-6)


class TestFrobeniusNorm:
    def test_zero_matrix(self):
        assert frobenius_norm(Matrix.zeros(3, 3)).item() == 0.0

    def test_identity(self):
        assert frobenius_norm(Matrix(np.eye(2))).item() == pytest.approx(math.sqrt(2), abs=1e-12)

    def test_sum_of_squares_oracle(self):
        vals = [[1.0, 2.0], [3.0, 4.0]]
        expected = math.sqrt(sum(x * x for row in vals for x in row))  # sqrt(30)
        assert expected == pytest.approx(5.477226, abs=1e-6)
        assert frobenius_norm(matrix(vals, P64)).item() == pytest.approx(expected, abs=1e-12)

    def test_nonnegative_and_zero_iff_zero(self, rng):
        m = rand_matrix(rng, 4, 4)
        assert frobenius_norm(m).item() > 0


class TestLayerNorm:
    def test_constant_input_returns_bias(self):
        x = matrix([[3.0] * 8], P64)
        gain = matrix([[2.0] * 8], P64)
        bias = matrix([list(range(8))], P64)
        out = layer_norm(x, gain, bias)
        np.testing.assert_allclose(out.data, bias.data, atol=1e-6)

    def test_unit_gain_zero_bias_normalizes(self, rng):
        x = rand_matrix(rng, 3, 16, P64, scl=5.0)
        gain = Matrix(np.ones((1, 16)))
        bias = Matrix.zeros(1, 16, P64)
        out = layer_norm(x, gain, bias).data
        np.testing.assert_allclose(out.mean(axis=1), 0.0, atol=1e-6)
        np.testing.assert_allclose(out.var(axis=1), 1.0, atol=1e-4)

    def test_direct_mean_variance_oracle(self, rng):
        v = rng.standard_normal(8)
        gain = rng.standard_normal(8)
        bias = rng.standard_normal(8)
        eps = 1e-5  # the engine's fixed epsilon
        expected = gain * (v - v.mean()) / math.sqrt(v.var() + eps) + bias
        out = layer_norm(Matrix(v.reshape(1, -1)), Matrix(gain.reshape(1, -1)), Matrix(bias.reshape(1, -1)))
        np.testing.assert_allclose(out.data[0], expected, atol=1e-12)

    def test_bad_gain_shape(self, rng):
        x = rand_matrix(rng, 2, 8)
        with pytest.raises(ShapeError):
            layer_norm(x, Matrix.zeros(1, 4, P64), Matrix.zeros(1, 8, P64))


class TestTape:
    def test_frobenius_squared_gradient_is_2m(self):
        m = matrix([[1.0, 2.0], [3.0, 4.0]], P64)
        with Tape() as tape:
            tape.watch(m)
            loss = square(frobenius_norm(m))
        grads = tape.backward(loss)
        np.testing.assert_allclose(grads[m].data, 2.0 * m.data, atol=1e-12)

    def test_disconnected_leaf_gets_zero_gradient(self, rng):
        used = rand_matrix(rng, 2, 2)
        unused = rand_matrix(rng, 3, 3)
        with Tape() as tape:
            tape.watch(used, unused)
            loss = sum_all(square(used))
        grads = tape.backward(loss)
        np.testing.assert_array_equal(grads[unused].data, np.zeros((3, 3)))

    def test_reused_leaf_accumulates(self, rng):
        m = rand_matrix(rng, 2, 2)
        with Tape() as tape:
            tape.watch(m)
            loss = sum_all(add(m, m))
        grads = tape.backward(loss)
        np.testing.assert_allclose(grads[m].data, 2.0 * np.ones((2, 2)), atol=1e-12)

    def test_loss_not_on_tape_rejected(self, rng):
        m = rand_matrix(rng, 1, 1)
        with Tape() as tape:
            tape.watch(m)
        with pytest.raises(ContractError, match="not recorded"):
            tape.backward(m)

    def test_non_scalar_loss_rejected(self, rng):
        m = rand_matrix(rng, 2, 2)
        with Tape() as tape:
            tape.watch(m)
            out = square(m)
        with pytest.raises(ContractError, match="1x1"):
            tape.backward(out)

    def test_nested_tapes_rejected(self):
        with Tape():
            with pytest.raises(ContractError, match="already active"):
                with Tape():
                    pass

    def test_composite_matmul_softmax_ce_matches_finite_differences(self, rng):
        x = rand_matrix(rng, 3, 4)

        def f(mats):
            a, b = mats
            return cross_entropy(matmul(x, matmul(a, b)), [0, 2, 4])

        gradcheck(f, [rand_matrix(rng, 4, 3), rand_matrix(rng, 3, 5)])


class TestPrimitiveGradients:
    """Every primitive against the central finite-difference oracle (P64)."""

    def scalarize(self, out, u, v):
        # rank-1 weighted readout keeps the probe sensitive to element order
        return matmul(matmul(u, out), v)

    @pytest.mark.parametrize("seed", range(5))
    def test_matmul(self, seed):
        rng = np.random.default_rng(seed)
        r, k, c = rng.integers(1, 8, size=3)
        u = rand_matrix(rng, 1, r)
        v = rand_matrix(rng, c, 1)
        f = lambda mats: self.scalarize(matmul(mats[0], mats[1]), u, v)
        gradcheck(f, [rand_matrix(rng, r, k), rand_matrix(rng, k, c)])

    @pytest.mark.parametrize("seed", range(3))
    def test_add_and_add_row(self, seed):
        rng = np.random.default_rng(100 + seed)
        r, c = rng.integers(1, 8, size=2)
        u, v = rand_matrix(rng, 1, r), rand_matrix(rng, c, 1)
        f = lambda mats: self.scalarize(add(mats[0], mats[1]), u, v)
        gradcheck(f, [rand_matrix(rng, r, c), rand_matrix(rng, r, c)])
        g = lambda mats: self.scalarize(add_row(mats[0], mats[1]), u, v)
        gradcheck(g, [rand_matrix(rng, r, c), rand_matrix(rng, 1, c)])

    @pytest.mark.parametrize("seed", range(3))
    def test_scale_transpose_square(self, seed):
        rng = np.random.default_rng(200 + seed)
        r, c = rng.integers(1, 8, size=2)
        u, v = rand_matrix(rng, 1, c), rand_matrix(rng, r, 1)
        f = lambda mats: self.scalarize(transpose(scale(square(mats[0]), -1.7)), u, v)
        gradcheck(f, [rand_matrix(rng, r, c)])

    @pytest.mark.parametrize("seed", range(3))
    def test_gelu(self, seed):
        rng = np.random.default_rng(300 + seed)
        r, c = rng.integers(1, 8, size=2)
        u, v = rand_matrix(rng, 1, r), rand_matrix(rng, c, 1)
        f = lambda mats: self.scalarize(gelu(mats[0]), u, v)
        gradcheck(f, [rand_matrix(rng, r, c, scl=2.0)])

    @pytest.mark.parametrize("seed", range(3))
    def test_layer_norm(self, seed):
        rng = np.random.default_rng(500 + seed)
        r, c = int(rng.integers(1, 8)), int(rng.integers(2, 8))
        u, v = rand_matrix(rng, 1, r), rand_matrix(rng, c, 1)
        f = lambda mats: self.scalarize(layer_norm(mats[0], mats[1], mats[2]), u, v)
        gradcheck(f, [rand_matrix(rng, r, c, scl=3.0), rand_matrix(rng, 1, c), rand_matrix(rng, 1, c)])

    @pytest.mark.parametrize("seed", range(3))
    def test_gather_and_slices_and_concat(self, seed):
        rng = np.random.default_rng(600 + seed)
        r, c = int(rng.integers(3, 8)), int(rng.integers(4, 8))
        idx = list(rng.integers(0, r, size=4))
        u, v = rand_matrix(rng, 1, 4), rand_matrix(rng, 2, 1)
        f = lambda mats: self.scalarize(slice_cols(gather_rows(mats[0], idx), 1, 3), u, v)
        gradcheck(f, [rand_matrix(rng, r, c)])

        u2, v2 = rand_matrix(rng, 1, 2 * r), rand_matrix(rng, c, 1)
        g = lambda mats: self.scalarize(concat_rows([mats[0], mats[1]]), u2, v2)
        gradcheck(g, [rand_matrix(rng, r, c), rand_matrix(rng, r, c)])

        u3, v3 = rand_matrix(rng, 1, r), rand_matrix(rng, 2 * c, 1)
        h = lambda mats: self.scalarize(concat_cols([mats[0], mats[1]]), u3, v3)
        gradcheck(h, [rand_matrix(rng, r, c), rand_matrix(rng, r, c)])

    @pytest.mark.parametrize("seed", range(3))
    def test_reductions(self, seed):
        rng = np.random.default_rng(700 + seed)
        r, c = rng.integers(1, 8, size=2)
        gradcheck(lambda mats: sum_all(mats[0]), [rand_matrix(rng, r, c)])
        gradcheck(lambda mats: mean_all(mats[0]), [rand_matrix(rng, r, c)])
        gradcheck(lambda mats: frobenius_norm(mats[0]), [rand_matrix(rng, r, c)])

    @pytest.mark.parametrize("seed", range(3))
    def test_cross_entropy(self, seed):
        rng = np.random.default_rng(800 + seed)
        n, c = int(rng.integers(1, 6)), int(rng.integers(2, 6))
        labels = rng.integers(0, c, size=n)
        f = lambda mats: cross_entropy(mats[0], labels)
        gradcheck(f, [rand_matrix(rng, n, c, scl=2.0)])


class TestCrossEntropy:
    """The loss op on logits and class indices (its label contract: tests/test_trainer.py)."""

    @pytest.mark.parametrize("n, c", [(2, 2), (3, 3), (6, 4), (7, 6), (12, 5)])
    def test_gradcheck_with_every_class_as_a_label(self, rng, n, c):
        labels = np.arange(n) % c  # n >= c, so every class is some row's label
        gradcheck(lambda mats: cross_entropy(mats[0], labels), [rand_matrix(rng, n, c, scl=2.0)])

    def test_large_logits_give_finite_loss_and_gradient(self, rng):
        logits = rand_matrix(rng, 4, 3, scl=1e3)
        labels = [0, 1, 2, 0]
        with Tape() as tape:
            tape.watch(logits)
            loss = cross_entropy(logits, labels)
        grad = tape.backward(loss)[logits].data
        assert np.isfinite(loss.item()) and loss.item() > 0
        assert np.isfinite(grad).all()
        np.testing.assert_allclose(grad.sum(axis=1), 0.0, atol=1e-12)  # softmax - onehot rows sum to 0
        gradcheck(lambda mats: cross_entropy(mats[0], labels), [logits])

    def test_p32_loss_matches_p64(self, rng):
        logits = rand_matrix(rng, 6, 5, scl=4.0)
        labels = [0, 1, 2, 3, 4, 0]
        lo = cross_entropy(Matrix(logits.data.astype(P32.dtype)), labels)
        assert lo.precision is P32
        assert lo.item() == pytest.approx(cross_entropy(logits, labels).item(), rel=1e-6)


def reference_segment_attention(q, k, v, lengths, n_heads):
    """Plain-numpy oracle: a loop over segments and heads, no padding."""
    out = np.zeros_like(q)
    dh = q.shape[1] // n_heads
    lo = 0
    for n in lengths:
        rows = slice(lo, lo + n)
        for h in range(n_heads):
            cols = slice(h * dh, (h + 1) * dh)
            s = q[rows, cols] @ k[rows, cols].T / math.sqrt(dh)
            e = np.exp(s - s.max(axis=1, keepdims=True))
            out[rows, cols] = (e / e.sum(axis=1, keepdims=True)) @ v[rows, cols]
        lo += n
    return out


class TestSegmentAttention:
    # ragged with a length-1 segment, and the unpadded single-segment case
    LENGTHS = ([3, 1, 4], [1, 2], [5])

    @pytest.mark.parametrize("n_heads", [1, 2, 4])
    @pytest.mark.parametrize("lengths", LENGTHS)
    def test_gradcheck(self, n_heads, lengths):
        rng = np.random.default_rng(900 + n_heads + 10 * len(lengths))
        n, d = sum(lengths), 8
        u, v = rand_matrix(rng, 1, n), rand_matrix(rng, d, 1)
        f = lambda m: matmul(matmul(u, segment_attention(m[0], m[1], m[2], lengths, n_heads)), v)
        gradcheck(f, [rand_matrix(rng, n, d, scl=1.5) for _ in range(3)])

    @pytest.mark.parametrize("n_heads", [1, 2, 4])
    @pytest.mark.parametrize("lengths", LENGTHS)
    def test_matches_per_segment_per_head_oracle(self, n_heads, lengths):
        rng = np.random.default_rng(950 + n_heads)
        q, k, v = (rand_matrix(rng, sum(lengths), 8, scl=2.0) for _ in range(3))
        out = segment_attention(q, k, v, lengths, n_heads).data
        ref = reference_segment_attention(q.data, k.data, v.data, lengths, n_heads)
        np.testing.assert_allclose(out, ref, atol=1e-12)

    def test_one_tape_node_and_partial_watch(self, rng):
        q, k, v = (rand_matrix(rng, 6, 4) for _ in range(3))
        lengths = [2, 4]
        u = rand_matrix(rng, 4, 1)
        with Tape() as tape:
            tape.watch(q, k, v)
            out = segment_attention(q, k, v, lengths, 2)
            assert len(tape._nodes) == 1
            loss = sum_all(matmul(out, u))
        full = tape.backward(loss)
        # only q reaches a watched leaf: its gradient is unchanged without dK
        # and dV, and a second backward on the same tape does not reuse the first
        with Tape() as tape:
            tape.watch(q)
            out = segment_attention(q, k, v, lengths, 2)
            other = sum_all(matmul(out, rand_matrix(rng, 4, 1)))
            loss = sum_all(matmul(out, u))
        tape.backward(other)
        np.testing.assert_allclose(tape.backward(loss)[q].data, full[q].data, atol=1e-14)

    def test_contract_errors(self, rng):
        q = rand_matrix(rng, 5, 4)
        with pytest.raises(ContractError, match="sum to 5"):
            segment_attention(q, q, q, [2, 2], 2)
        with pytest.raises(ContractError, match="positive"):
            segment_attention(q, q, q, [5, 0], 2)
        with pytest.raises(ShapeError, match="heads"):
            segment_attention(q, q, q, [5], 3)
        with pytest.raises(ShapeError, match="differ"):
            segment_attention(q, rand_matrix(rng, 5, 2), q, [5], 2)
        with pytest.raises(ContractError, match="mixed precision"):
            segment_attention(q, Matrix(q.data.astype(P32.dtype)), q, [5], 2)


class TestRng:
    def test_identical_seeds_identical_sequences(self):
        a = Rng(1234).normal_matrix(4, 4)
        b = Rng(1234).normal_matrix(4, 4)
        np.testing.assert_array_equal(a.data, b.data)

    def test_split_by_label_is_order_independent(self):
        r1 = Rng(77)
        first_adapter = r1.split("adapter").normal_matrix(2, 2)
        r2 = Rng(77)
        _ = r2.split("head").normal_matrix(3, 3)
        second_adapter = r2.split("adapter").normal_matrix(2, 2)
        np.testing.assert_array_equal(first_adapter.data, second_adapter.data)

    def test_distinct_labels_distinct_streams(self):
        r = Rng(5)
        a = r.split("a").normal_matrix(4, 4)
        b = r.split("b").normal_matrix(4, 4)
        assert not np.array_equal(a.data, b.data)


class TestMatrixInvariants:
    def test_data_is_read_only(self, rng):
        m = rand_matrix(rng, 2, 2)
        with pytest.raises(ValueError):
            m.data[0, 0] = 1.0

    def test_row_major_length(self, rng):
        m = rand_matrix(rng, 3, 5)
        assert m.data.size == m.rows * m.cols
        assert m.data.flags.c_contiguous

    def test_nonfinite_input_rejected(self):
        with pytest.raises(ContractError):
            matrix([[1.0, float("inf")]])

    def test_operations_preserve_finiteness(self, rng):
        m = rand_matrix(rng, 6, 6, P32, scl=30.0)
        for out in (softmax(m), gelu(m), layer_norm(m, Matrix(np.ones((1, 6), np.float32)), Matrix.zeros(1, 6, P32))):
            assert np.isfinite(out.data).all()
