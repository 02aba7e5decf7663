"""Metric fixtures against independent brute-force / quadrature oracles."""

from __future__ import annotations

import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scoremux.errors import ContractError
from scoremux.evalkit import (
    accuracy,
    confusion_matrix,
    macro_f1,
    paired_t_test,
    qwk,
    student_t_two_sided_p,
)


def brute_force_qwk(golds, preds, num_classes):
    """Direct triple-loop over O, E, w; no numpy, written independently."""
    n = len(golds)
    observed = [[0] * num_classes for _ in range(num_classes)]
    for g, p in zip(golds, preds):
        observed[g][p] += 1
    hist_g = [sum(1 for g in golds if g == c) for c in range(num_classes)]
    hist_p = [sum(1 for p in preds if p == c) for c in range(num_classes)]
    num = 0.0
    den = 0.0
    for i in range(num_classes):
        for j in range(num_classes):
            w = (i - j) ** 2 / (num_classes - 1) ** 2
            num += w * observed[i][j]
            den += w * hist_g[i] * hist_p[j] / n
    return 1.0 if den == 0.0 else 1.0 - num / den


def t_two_sided_p_by_quadrature(t, df):
    """p = 1 - 2 * integral_0^|t| pdf(u) du, trapezoid on a fine grid."""
    coef = math.exp(math.lgamma((df + 1) / 2) - math.lgamma(df / 2)) / math.sqrt(df * math.pi)
    u = np.linspace(0.0, abs(t), 400_001)
    pdf = coef * (1.0 + u * u / df) ** (-(df + 1) / 2)
    return 1.0 - 2.0 * np.trapezoid(pdf, u)


class TestQwk:
    def test_perfect_agreement(self):
        for labels in ([0, 1, 2, 1], [1, 1, 0], [3, 0, 2, 1, 3]):
            assert qwk(labels, labels, max(labels) + 1) == 1.0

    def test_reversed_three_classes_is_minus_one(self):
        # hand evaluation: sum(w*O) = 2, sum(w*E) = 1
        assert qwk([0, 1, 2], [2, 1, 0], 3) == pytest.approx(-1.0, abs=1e-12)

    def test_binary_half_agreement_fixture(self):
        # hand evaluation: sum(w*O) = 1, sum(w*E) = 2
        assert qwk([0, 0, 1, 1], [0, 0, 1, 0], 2) == pytest.approx(0.5, abs=1e-12)

    def test_degenerate_single_class_defined_as_one(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            assert qwk([1, 1, 1], [1, 1, 1], 3) == 1.0

    def test_brute_force_agreement_exhaustive_small(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            for c, max_len in ((2, 4), (3, 3)):
                for n in range(1, max_len + 1):
                    for golds in itertools.product(range(c), repeat=n):
                        for preds in itertools.product(range(c), repeat=n):
                            assert qwk(golds, preds, c) == pytest.approx(
                                brute_force_qwk(golds, preds, c), abs=1e-12
                            )

    @given(
        st.integers(min_value=2, max_value=6).flatmap(
            lambda c: st.tuples(
                st.just(c),
                st.lists(st.integers(0, c - 1), min_size=1, max_size=40),
                st.lists(st.integers(0, c - 1), min_size=1, max_size=40),
            )
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_properties_random(self, case):
        c, golds, preds = case
        preds = (preds * (len(golds) // len(preds) + 1))[: len(golds)]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            k = qwk(golds, preds, c)
            assert -1.0 - 1e-9 <= k <= 1.0 + 1e-9
            assert k == pytest.approx(qwk(preds, golds, c), abs=1e-12)  # symmetry
            flipped = qwk([c - 1 - g for g in golds], [c - 1 - p for p in preds], c)
            assert k == pytest.approx(flipped, abs=1e-12)  # order-reversal invariance
            assert k == pytest.approx(brute_force_qwk(golds, preds, c), abs=1e-12)

    def test_contract_errors(self):
        with pytest.raises(ContractError):
            qwk([0, 1], [0], 2)
        with pytest.raises(ContractError):
            qwk([], [], 2)
        with pytest.raises(ContractError):
            qwk([0, 2], [0, 1], 2)
        with pytest.raises(ContractError):
            qwk([0, 0], [0, 0], 1)


class TestAccuracyMacroF1:
    def test_perfect(self):
        assert accuracy([0, 1, 2], [0, 1, 2]) == 1.0
        assert macro_f1([0, 1, 2], [0, 1, 2], 3) == 1.0

    def test_three_quarters_fixture(self):
        assert accuracy([0, 0, 1, 1], [0, 0, 1, 0]) == 0.75

    def test_macro_f1_hand_computation(self):
        # class 0: P=2/3, R=1 -> F1=0.8; class 1: P=1, R=1/2 -> F1=2/3
        expected = (0.8 + 2.0 / 3.0) / 2.0
        assert macro_f1([0, 0, 1, 1], [0, 0, 1, 0], 2) == pytest.approx(expected, abs=1e-12)

    def test_absent_class_excluded(self):
        # class 2 never appears in golds or preds -> averaged over classes 0,1
        both = macro_f1([0, 0, 1, 1], [0, 0, 1, 0], 3)
        assert both == pytest.approx(macro_f1([0, 0, 1, 1], [0, 0, 1, 0], 2), abs=1e-12)

    def test_perfect_accuracy_implies_perfect_kappa_and_f1(self):
        gen = np.random.default_rng(5)
        for _ in range(20):
            c = int(gen.integers(2, 7))
            labels = list(gen.integers(0, c, size=30))
            if len(set(labels)) == 1:
                continue
            assert accuracy(labels, labels) == 1.0
            assert qwk(labels, labels, c) == 1.0
            assert macro_f1(labels, labels, c) == 1.0

    def test_confusion_row_sums_are_gold_histogram(self):
        golds = [0, 1, 1, 2, 2, 2]
        preds = [0, 1, 0, 2, 1, 2]
        m = confusion_matrix(golds, preds, 3)
        assert m.sum() == len(golds)
        assert list(m.sum(axis=1)) == [1, 2, 3]


class TestPairedTTest:
    def test_identical_samples(self):
        t, p = paired_t_test([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        assert t == 0.0 and p == 1.0

    def test_zero_mean_differences(self):
        # d = [1, 0, -1]: mean 0 -> t = 0, p = 1
        t, p = paired_t_test([2.0, 2.0, 2.0], [1.0, 2.0, 3.0])
        assert t == pytest.approx(0.0, abs=1e-12)
        assert p == pytest.approx(1.0, abs=1e-12)

    def test_closed_form_fixture_with_quadrature_oracle(self):
        # d = [1, 2, 3]: t = mean/(sd/sqrt(3)) = 2/(1/sqrt(3)) = 2*sqrt(3)
        t, p = paired_t_test([2.0, 4.0, 6.0], [1.0, 2.0, 3.0])
        assert t == pytest.approx(2.0 * math.sqrt(3.0), abs=1e-12)
        assert p == pytest.approx(0.0742, abs=5e-4)
        assert p == pytest.approx(t_two_sided_p_by_quadrature(t, 2), abs=1e-7)

    def test_p_matches_quadrature_across_dfs(self):
        for t in (0.5, 1.3, 2.7, 5.0):
            for df in (1, 2, 5, 13, 26):
                assert student_t_two_sided_p(t, df) == pytest.approx(
                    t_two_sided_p_by_quadrature(t, df), abs=1e-7
                )

    def test_sign_flips_on_swap_p_unchanged(self):
        a = [0.9, 0.8, 0.85, 0.7]
        b = [0.85, 0.82, 0.8, 0.72]
        t1, p1 = paired_t_test(a, b)
        t2, p2 = paired_t_test(b, a)
        assert t1 == pytest.approx(-t2, abs=1e-12)
        assert p1 == pytest.approx(p2, abs=1e-12)

    def test_constant_nonzero_difference_degenerates(self):
        t, p = paired_t_test([2.0, 3.0, 4.0], [1.0, 2.0, 3.0])
        assert math.isinf(t) and t > 0 and p == 0.0
        t, p = paired_t_test([1.0, 2.0, 3.0], [2.0, 3.0, 4.0])
        assert math.isinf(t) and t < 0 and p == 0.0

    def test_contract_errors(self):
        with pytest.raises(ContractError):
            paired_t_test([1.0], [2.0])
        with pytest.raises(ContractError):
            paired_t_test([1.0, 2.0], [1.0])


@pytest.fixture(scope="module")
def env(tmp_path_factory):
    from scoremux.backbone import Backbone, BackboneConfig
    from scoremux.data import SplitView
    from scoremux.orchestrator import Registry, save_task_module
    from scoremux.trainer import TrainConfig, train_task
    from scoremux.workbench import TaskSpec, generate_task

    root = tmp_path_factory.mktemp("evalenv")
    backbone = Backbone(BackboneConfig(seed=6)).freeze()
    dataset = generate_task(TaskSpec("TMem", num_classes=2, n_items=30, difficulty="easy", seed=2))
    # memorization setup: the module trains on the very items it is tested on
    items = tuple(dataset.items)
    dataset.splits = SplitView(train=items, val=items, test=items[:10])
    module, _ = train_task(
        backbone, dataset,
        TrainConfig(learning_rate=1e-2, batch_size=8, max_epochs=8, patience=8, seed=3),
    )
    path = root / "TMem.mod"
    save_task_module(module, str(path))
    registry = Registry(capacity=2)
    registry.register("TMem", str(path))
    return backbone, registry, dataset, root


class TestEvaluate:

    def test_memorized_test_set_scores_perfectly(self, env):
        from scoremux.evalkit import evaluate

        backbone, registry, dataset, _ = env
        report = evaluate(registry, backbone, "TMem", dataset.splits.test)
        assert report.qwk == 1.0 and report.accuracy == 1.0 and report.macro_f1 == 1.0
        assert report.n_test == 10

    def test_confusion_rows_match_gold_histogram(self, env):
        from scoremux.evalkit import evaluate

        backbone, registry, dataset, _ = env
        report = evaluate(registry, backbone, "TMem", dataset.splits.test)
        golds = [it.score for it in dataset.splits.test]
        for c in range(2):
            assert sum(report.confusion[c]) == golds.count(c)
        assert sum(sum(row) for row in report.confusion) == report.n_test
        assert report.accuracy == sum(report.confusion[c][c] for c in range(2)) / report.n_test

    def test_untrained_modules_score_at_chance(self, env, tmp_path):
        from scoremux.adapters import new_adapter
        from scoremux.evalkit import evaluate
        from scoremux.heads import new_head
        from scoremux.numerics import Rng
        from scoremux.orchestrator import Registry, TaskModule, save_task_module

        backbone, _, dataset, _ = env
        balanced = list(dataset.items)  # exactly 15 per class, no label noise
        golds = [it.score for it in balanced]
        assert golds.count(0) == golds.count(1)
        accs = []
        for seed in range(20):
            tid = f"TChance{seed}"
            module = TaskModule(
                adapter=new_adapter(tid, backbone.config, rng=Rng(seed)),
                head=new_head(tid, 2, backbone.config.d_model, Rng(100 + seed)),
                backbone_fingerprint=backbone.frozen_fingerprint,
            )
            path = tmp_path / f"{tid}.mod"
            save_task_module(module, str(path))
            registry = Registry(capacity=1)
            registry.register(tid, str(path))
            report = evaluate(registry, backbone, tid, balanced)
            accs.append(report.accuracy)
        # with exactly balanced golds, E[accuracy] = 1/C for any label-blind head
        sigma = math.sqrt(0.5 * 0.5 / (20 * len(balanced)))
        assert abs(float(np.mean(accs)) - 0.5) <= 4 * sigma

    def test_empty_test_split_rejected(self, env):
        from scoremux.evalkit import evaluate

        backbone, registry, _, _ = env
        with pytest.raises(ContractError):
            evaluate(registry, backbone, "TMem", [])

    @pytest.mark.parametrize("batch_size", [32, 7])
    def test_confusion_equals_per_item_score_labels(self, env, monkeypatch, batch_size):
        from scoremux import evalkit, orchestrator
        from scoremux.orchestrator import score
        from scoremux.workbench import TaskSpec, generate_task

        backbone, registry, dataset, _ = env
        monkeypatch.setattr(orchestrator, "SCORE_BATCH", batch_size)
        # unseen answers give mixed, partly wrong labels; 40 items span two batches of 32
        unseen = generate_task(TaskSpec("TMem", num_classes=2, n_items=40, difficulty="medium", seed=4)).items
        for items in (list(dataset.items), list(unseen)):
            report = evalkit.evaluate(registry, backbone, "TMem", items)
            preds = [score(registry, backbone, "TMem", it.text).label for it in items]
            expected = confusion_matrix([it.score for it in items], preds, 2)
            assert report.confusion == tuple(tuple(int(x) for x in row) for row in expected)

    @pytest.mark.parametrize("batch_size", [1, 3, 7, 32])
    def test_split_rows_equal_served_probs(self, env, monkeypatch, batch_size):
        from scoremux import orchestrator
        from scoremux.backbone import tokenize
        from scoremux.orchestrator import score, score_tokens
        from scoremux.workbench import TaskSpec, generate_task

        backbone, registry, dataset, _ = env
        monkeypatch.setattr(orchestrator, "SCORE_BATCH", batch_size)
        unseen = generate_task(TaskSpec("TMem", num_classes=2, n_items=40, difficulty="medium", seed=4)).items
        tokens = [tokenize(it.text, backbone.config) for it in (*dataset.items, *unseen)]
        # a [CLS]-only answer is the known exception: served alone, every layer runs 1-row matmuls
        assert all(len(t) > 1 for t in tokens)
        module, weights = registry.ensure_loaded("TMem", backbone)
        rows = score_tokens(backbone, weights, module.head, tokens)
        for it, row in zip((*dataset.items, *unseen), rows):
            np.testing.assert_array_equal(row, score(registry, backbone, "TMem", it.text).probs)

    def test_unfrozen_backbone_rejected(self, env):
        from scoremux.evalkit import evaluate

        backbone, registry, dataset, _ = env
        with pytest.raises(ContractError, match="frozen"):
            evaluate(registry, backbone.clone(), "TMem", dataset.splits.test)

    def test_module_for_another_backbone_rejected(self, env):
        from scoremux.backbone import Backbone, BackboneConfig
        from scoremux.errors import BackboneMismatchError
        from scoremux.evalkit import evaluate

        _, registry, dataset, _ = env
        other = Backbone(BackboneConfig(seed=7)).freeze()
        with pytest.raises(BackboneMismatchError):
            evaluate(registry, other, "TMem", dataset.splits.test)
