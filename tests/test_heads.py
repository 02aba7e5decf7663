"""Classification head: affine logits, class probabilities, tie rules."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scoremux.errors import ContractError, ShapeError
from scoremux.heads import ClassificationHead, class_probs, head_forward, new_head, predict
from scoremux.numerics import Matrix, P64, Rng, Tape, matrix, sum_all


def head_with_logits(z: list[float]) -> ClassificationHead:
    """Zero weight + bias=z makes head_forward return z for any hidden."""
    c = len(z)
    return ClassificationHead(Matrix.zeros(c, 4), matrix([z]))


class TestHeadForward:
    def test_zero_head_gives_zero_logits(self):
        head = ClassificationHead(Matrix.zeros(2, 4), Matrix.zeros(1, 2))
        assert head_forward(head, matrix([[1.0, -2.0, 3.0, 0.5]])).tolist() == [[0.0, 0.0]]

    def test_bias_passthrough(self):
        head = head_with_logits([1.0, 2.0])
        for h in ([[0.0] * 4], [[5.0, -1.0, 2.0, 7.0]]):
            assert head_forward(head, matrix(h)).tolist() == [[1.0, 2.0]]

    def test_matches_dot_product_oracle(self):
        gen = np.random.default_rng(17)
        w = gen.standard_normal((3, 4))
        b = gen.standard_normal(3)
        h = gen.standard_normal(4)
        expected = [float(np.dot(w[i], h) + b[i]) for i in range(3)]
        head = ClassificationHead(Matrix(w.copy()), Matrix(b.reshape(1, 3).copy()))
        out = head_forward(head, Matrix(h.reshape(1, 4).copy()))
        np.testing.assert_allclose(out.data[0], expected, atol=1e-12)

    def test_dimension_mismatch(self):
        head = new_head("t", 3, 8, Rng(1))
        with pytest.raises(ShapeError):
            head_forward(head, Matrix.zeros(1, 4))

    def test_gradients_flow_to_weight_and_bias(self):
        head = new_head("t", 3, 4, Rng(1), P64)
        h = Matrix(np.random.default_rng(0).standard_normal((1, 4)))
        with Tape() as tape:
            tape.watch(head.weight, head.bias)
            loss = sum_all(head_forward(head, h))
        grads = tape.backward(loss)
        assert np.abs(grads[head.weight].data).sum() > 0
        np.testing.assert_allclose(grads[head.bias].data, np.ones((1, 3)), atol=1e-12)


class TestPredict:
    def test_tie_breaks_to_lowest_index(self):
        label, probs = predict(head_with_logits([0.0, 0.0]), Matrix.zeros(1, 4))
        assert label == 0
        np.testing.assert_allclose(probs, [0.5, 0.5], atol=1e-12)

    def test_shift_invariance(self):
        base = head_with_logits([0.3, -1.2, 2.0])
        shifted = head_with_logits([0.3 + 7.0, -1.2 + 7.0, 2.0 + 7.0])
        h = Matrix.zeros(1, 4)
        l1, p1 = predict(base, h)
        l2, p2 = predict(shifted, h)
        assert l1 == l2
        np.testing.assert_allclose(p1, p2, atol=1e-6)

    def test_softmax_oracle_values(self):
        label, probs = predict(head_with_logits([1.0, 2.0, 3.0]), Matrix.zeros(1, 4))
        assert label == 2
        np.testing.assert_allclose(probs, [0.090031, 0.244728, 0.665241], atol=1e-5)

    # gap capped at 30: beyond ~37 the loser underflows past float64 spacing
    # at 1.0 and the winner rounds to exactly 1.0
    @given(st.lists(st.floats(min_value=-15, max_value=15), min_size=2, max_size=6))
    @settings(max_examples=100, deadline=None)
    def test_probs_valid_and_argmax_consistent(self, logits):
        label, probs = predict(head_with_logits(logits), Matrix.zeros(1, 4))
        assert abs(probs.sum() - 1.0) <= 1e-6
        assert ((probs > 0) & (probs < 1)).all() or len(set(logits)) == 1
        stored = np.asarray(logits, dtype=np.float32)  # head bias is P32
        top = np.sort(stored)
        if top[-1] - top[-2] > 1e-6:  # argmax only well-defined for resolvable gaps
            assert label == int(np.argmax(stored))


class TestClassProbs:
    def test_batch_rows_equal_predict_exactly(self):
        # integer-valued weights and hiddens make every float32 logit exact in
        # any summation order, so a batch and its single rows share the logits
        gen = np.random.default_rng(23)
        head = ClassificationHead(
            Matrix(gen.integers(-3, 4, (5, 64)).astype(np.float32)),
            Matrix(gen.standard_normal((1, 5)).astype(np.float32)),
        )
        h = Matrix(gen.integers(-3, 4, (9, 64)).astype(np.float32))
        probs = class_probs(head, h)
        assert probs.shape == (9, 5) and probs.dtype == np.float64
        for i in range(9):
            label, row = predict(head, Matrix(h.data[i : i + 1].copy()))
            np.testing.assert_array_equal(probs[i], row)
            assert label == int(np.argmax(probs[i]))

    def test_uniform_on_equal_inputs(self):
        h = Matrix.zeros(2, 4)
        np.testing.assert_allclose(class_probs(head_with_logits([0.0, 0.0, 0.0]), h), [[1 / 3] * 3] * 2, atol=1e-12)
        np.testing.assert_allclose(class_probs(head_with_logits([1.0, 1.0]), h), [[0.5, 0.5]] * 2, atol=1e-12)

    def test_direct_evaluation_oracle(self):
        # independent exp/sum evaluation
        v = [1.0, 2.0, 3.0]
        e = [math.exp(x) for x in v]
        expected = [x / sum(e) for x in e]
        np.testing.assert_allclose(expected, [0.090031, 0.244728, 0.665241], atol=1e-5)
        np.testing.assert_allclose(class_probs(head_with_logits(v), Matrix.zeros(1, 4))[0], expected, atol=1e-12)

    def test_nonfinite_rejected(self):
        with pytest.raises(ContractError):
            class_probs(head_with_logits([1.0, float("nan")]), Matrix.zeros(1, 4))
        head = head_with_logits([0.0, 0.0])
        head.weight = Matrix(np.full((2, 4), np.inf, dtype=np.float32))
        with np.errstate(invalid="ignore"), pytest.raises(ContractError):
            class_probs(head, matrix([[1.0, 0.0, 0.0, 0.0]]))

    @given(st.lists(st.floats(min_value=-80, max_value=80), min_size=2, max_size=6))
    @settings(max_examples=200, deadline=None)
    def test_sums_to_one_and_preserves_argmax(self, logits):
        out = class_probs(head_with_logits(logits), Matrix.zeros(1, 4))[0]
        assert abs(out.sum() - 1.0) <= 1e-12
        assert (out > 0).all()
        top = np.sort(np.asarray(logits, dtype=np.float32))  # head bias is P32
        if top[-1] - top[-2] > 1e-9:  # gap resolvable in float64
            assert int(np.argmax(out)) == int(np.argmax(np.asarray(logits, dtype=np.float32)))


class TestValidation:
    def test_class_count_range(self):
        with pytest.raises(ContractError):
            ClassificationHead(Matrix.zeros(1, 4), Matrix.zeros(1, 1))
        with pytest.raises(ContractError):
            ClassificationHead(Matrix.zeros(7, 4), Matrix.zeros(1, 7))

    def test_new_head_is_seeded(self):
        a = new_head("t", 4, 16, Rng(3))
        b = new_head("t", 4, 16, Rng(3))
        np.testing.assert_array_equal(a.weight.data, b.weight.data)
        assert np.all(a.bias.data == 0.0)
