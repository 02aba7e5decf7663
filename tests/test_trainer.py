"""Loss functions, splits, optimizer schedule/clipping, early stopping, training."""

from __future__ import annotations

import math
import time
from collections import Counter

import numpy as np
import pytest

from scoremux.adapters import TargetKind, TargetPatch, LoraAdapter, effective_weights, new_adapter
from scoremux.backbone import Backbone, BackboneConfig, CLS_ID, TokenSeq, save_backbone, tokenize
from scoremux.data import ScoredResponse, TaskDataset, split_dataset
from scoremux.errors import ContractError, FrozenViolationError
from scoremux.evalkit import qwk
from scoremux.heads import head_forward, new_head, predict
from scoremux.numerics import P64, Rng, Tape, concat_rows, cross_entropy, matrix
from scoremux.trainer import (
    Adam,
    EarlyStopper,
    ParamSlot,
    TrainConfig,
    _eval_split,
    adapter_head_slots,
    clip_gradients,
    pretrain_backbone,
    total_loss,
    train_task,
    warmup_lr,
)
from scoremux.workbench import TaskSpec, generate_task

from conftest import assert_grad_close, fd_grad


def make_dataset(n=120, num_classes=2, seed=1, task_id="T01"):
    gen = np.random.default_rng(seed)
    pools = [
        ["strom", "leiter", "metall", "elektron", "spannung"],
        ["pflanze", "wasser", "licht", "zucker", "blatt"],
        ["stein", "berg", "sand", "fels", "kies"],
        ["wind", "wolke", "regen", "sturm", "nebel"],
    ]
    items = []
    for i in range(n):
        label = i % num_classes
        words = [str(gen.choice(pools[label])) for _ in range(12)]
        items.append(ScoredResponse(" ".join(words) + f" nr{i}", label))
    return TaskDataset(task_id, num_classes, items)


class TestCrossEntropy:
    # logits are log-probabilities, so each case reads as the probabilities it stands for
    def test_perfect_prediction_is_zero(self):
        logits = matrix([[100.0, 0.0], [0.0, 100.0]], P64)
        assert cross_entropy(logits, [0, 1]).item() == pytest.approx(0.0, abs=1e-9)

    def test_uniform_four_classes(self):
        logits = matrix([[0.0] * 4], P64)
        assert cross_entropy(logits, [1]).item() == pytest.approx(math.log(4), abs=1e-9)

    def test_half_confidence(self):
        logits = matrix([[0.0, 0.0]], P64)
        assert cross_entropy(logits, [0]).item() == pytest.approx(math.log(2), abs=1e-9)

    def test_mean_over_instances(self):
        logits = matrix([[math.log(0.5), math.log(0.5)], [math.log(0.25), math.log(0.75)]], P64)
        expected = (math.log(2) - math.log(0.75)) / 2
        assert cross_entropy(logits, [0, 1]).item() == pytest.approx(expected, abs=1e-9)

    def test_rejects_out_of_range_label(self):
        for labels in ([2], [-1]):  # a negative index must not wrap around to the last class
            with pytest.raises(ContractError, match="out of range"):
                cross_entropy(matrix([[0.5, 0.5]], P64), labels)

    def test_rejects_wrong_label_count(self):
        for labels in ([0, 1], [], [0.0], [[0]]):
            with pytest.raises(ContractError, match="integer class indices"):
                cross_entropy(matrix([[0.5, 0.5]], P64), labels)


class TestTotalLoss:
    def fresh_ce(self):
        return matrix([[1.25]], P64)

    def deltas(self, adapter, config=BackboneConfig()):
        return effective_weights(Backbone(config, adapter.targets[0].a.precision), adapter)[1]

    def test_lambda_zero_returns_ce_exactly(self):
        ad = new_adapter("t", BackboneConfig(), rng=Rng(1))
        ce = self.fresh_ce()
        assert total_loss(ce, self.deltas(ad), 0.0) is ce

    def test_fresh_adapter_adds_nothing(self):
        ad = new_adapter("t", BackboneConfig(), rng=Rng(1), precision=P64)
        ce = self.fresh_ce()
        assert total_loss(ce, self.deltas(ad), 0.5).item() == pytest.approx(ce.item(), abs=1e-12)

    def test_known_penalty(self):
        # single patch, ||delta||_F = 2, lambda = 0.1 -> ce + 0.4
        patch = TargetPatch(0, TargetKind.QUERY_PROJ, matrix([[2.0], [0.0]], P64), matrix([[1.0, 0.0]], P64))
        ad = LoraAdapter("t", 1, 1.0, [patch])
        tiny = BackboneConfig(vocab_size=8, d_model=2, n_layers=1, n_heads=1, d_ff=2, max_seq_len=4)
        out = total_loss(self.fresh_ce(), self.deltas(ad, tiny), 0.1)
        assert out.item() == pytest.approx(1.25 + 0.4, abs=1e-9)


class TestSplitDataset:
    def test_thousand_splits_800_100_100(self):
        ds = make_dataset(n=1000)
        train, val, test = split_dataset(ds, seed=3)
        assert (len(train), len(val), len(test)) == (800, 100, 100)

    def test_partition_is_exhaustive_and_disjoint(self):
        ds = make_dataset(n=200)
        train, val, test = split_dataset(ds, seed=3)
        combined = Counter((it.text, it.score) for it in train + val + test)
        assert combined == Counter((it.text, it.score) for it in ds.items)
        texts = [set(i.text for i in part) for part in (train, val, test)]
        assert not (texts[0] & texts[1]) and not (texts[0] & texts[2]) and not (texts[1] & texts[2])

    def test_duplicate_texts_stay_together(self):
        items = [ScoredResponse(f"text {i % 30}", i % 2) for i in range(120)]
        ds = TaskDataset("T01", 2, items)
        train, val, test = split_dataset(ds, seed=9)
        texts = [set(i.text for i in part) for part in (train, val, test)]
        assert not (texts[0] & texts[1]) and not (texts[0] & texts[2]) and not (texts[1] & texts[2])

    def test_seed_determinism_and_variation(self):
        ds = make_dataset(n=100)
        first = split_dataset(ds, seed=5)
        again = split_dataset(make_dataset(n=100), seed=5)
        assert first == again
        distinct = sum(split_dataset(make_dataset(n=100), seed=s)[0] != first[0] for s in range(20))
        assert distinct >= 18

    def test_too_small_rejected(self):
        with pytest.raises(ContractError):
            split_dataset(make_dataset(n=9), seed=0)


class TestScheduleAndClipping:
    def test_warmup_shape(self):
        lr, w = 1e-3, 10
        for s in range(1, w + 1):
            assert warmup_lr(s, lr, w) == pytest.approx(lr * s / w, abs=1e-15)
        assert warmup_lr(w + 1, lr, w) == lr
        assert warmup_lr(1, lr, 0) == lr

    def test_clip_reduces_to_bound(self):
        grads = [np.full((4, 4), 3.0), np.full((2, 2), -2.0)]
        clipped, norm = clip_gradients(grads, 1.0)
        assert norm <= 1.0 + 1e-6
        total = math.sqrt(sum(float((g**2).sum()) for g in clipped))
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_small_gradients_untouched(self):
        grads = [np.full((2, 2), 0.01)]
        clipped, norm = clip_gradients(grads, 1.0)
        assert clipped[0] is grads[0]
        assert norm == pytest.approx(0.02, abs=1e-12)


class TestEarlyStopper:
    def test_stops_after_patience_bad_epochs(self):
        # improves at epochs 1-2 only; patience 2 -> stop at epoch 4
        stopper = EarlyStopper(patience=2)
        losses = {1: 1.0, 2: 0.8, 3: 0.9, 4: 0.85, 5: 0.84}
        stopped = None
        for epoch in range(1, 6):
            stopper.update(epoch, losses[epoch])
            if stopper.should_stop:
                stopped = epoch
                break
        assert stopped == 4
        assert stopper.best_epoch == 2

    def test_streak_resets_on_improvement(self):
        stopper = EarlyStopper(patience=2)
        for epoch, loss in enumerate([1.0, 0.9, 0.95, 0.8, 0.85], start=1):
            stopper.update(epoch, loss)
            assert not stopper.should_stop
        assert stopper.best_epoch == 4


class TestAdam:
    def test_first_step_magnitude_is_lr(self):
        holder = type("H", (), {"p": matrix([[1.0]], P64)})()
        slot = ParamSlot("p", lambda: holder.p, lambda m: setattr(holder, "p", m))
        Adam([slot]).step([np.array([[0.5]])], lr=0.01)
        # mhat/(sqrt(vhat)+eps) ~= sign(g) on step one
        assert holder.p.item() == pytest.approx(1.0 - 0.01, abs=1e-6)

    def test_descends_on_quadratic(self):
        holder = type("H", (), {"p": matrix([[4.0]], P64)})()
        slot = ParamSlot("p", lambda: holder.p, lambda m: setattr(holder, "p", m))
        adam = Adam([slot])
        for _ in range(200):
            adam.step([np.array([[2.0 * holder.p.item()]])], lr=0.05)
        assert abs(holder.p.item()) < 0.5


def tiny_setup(seed):
    cfg = BackboneConfig(vocab_size=40, d_model=8, n_layers=1, n_heads=2, d_ff=16, max_seq_len=8, seed=seed)
    bb = Backbone(cfg, P64).freeze()
    adapter = new_adapter("t", cfg, r=2, alpha=4.0, rng=Rng(seed + 1), precision=P64)
    rng = Rng(seed + 2)
    for i, p in enumerate(adapter.targets):
        p.b = rng.split(f"b{i}").normal_matrix(p.rank, p.k, std=0.1, precision=P64)
    head = new_head("t", 3, cfg.d_model, Rng(seed + 3), P64)
    gen = np.random.default_rng(seed + 4)
    seqs = [
        tuple([CLS_ID] + list(gen.integers(4, cfg.vocab_size, size=int(gen.integers(3, 6)))))
        for _ in range(2)
    ]
    labels = [int(gen.integers(0, 3)) for _ in seqs]
    return bb, adapter, head, seqs, labels


def module_loss(bb, adapter, head, seqs, labels, reg_lambda):
    weights, deltas = effective_weights(bb, adapter)
    hiddens = concat_rows([bb.encode(TokenSeq(s), weights) for s in seqs])
    ce = cross_entropy(head_forward(head, hiddens), labels)
    return total_loss(ce, deltas, reg_lambda)


class TestGradientCorrectness:
    @pytest.mark.parametrize("seed", range(5))
    def test_total_loss_gradients_match_finite_differences(self, seed):
        bb, adapter, head, seqs, labels = tiny_setup(seed)
        slots = adapter_head_slots(adapter, head)
        mats = [s.get() for s in slots]

        def f(ms):
            for slot, m in zip(slots, ms):
                slot.set(m)
            return module_loss(bb, adapter, head, seqs, labels, reg_lambda=0.05)

        with Tape() as tape:
            for m in mats:
                tape.watch(m)
            for slot, m in zip(slots, mats):
                slot.set(m)
            loss = module_loss(bb, adapter, head, seqs, labels, reg_lambda=0.05)
        grads = tape.backward(loss)
        for i, m in enumerate(mats):
            assert_grad_close(grads[m].data, fd_grad(f, mats, i), tol=1e-4)


@pytest.fixture(scope="module")
def frozen():
    return Backbone(BackboneConfig(seed=11)).freeze()


class TestTrainTask:

    def test_requires_frozen_backbone(self):
        with pytest.raises(FrozenViolationError):
            train_task(Backbone(BackboneConfig()), make_dataset())

    def test_fingerprint_unchanged_and_learns(self, frozen, tmp_path):
        before = tmp_path / "before.bin"
        after = tmp_path / "after.bin"
        save_backbone(frozen, str(before))
        module, report = train_task(
            frozen, make_dataset(n=120), TrainConfig(learning_rate=5e-3, max_epochs=3, seed=2)
        )
        save_backbone(frozen, str(after))
        assert before.read_bytes() == after.read_bytes()
        assert frozen.fingerprint() == frozen.frozen_fingerprint
        assert report.epochs[-1].val_qwk >= 0.8
        assert module.backbone_fingerprint == frozen.frozen_fingerprint

    def test_warmup_schedule_recorded(self, frozen):
        cfg = TrainConfig(learning_rate=2e-3, max_epochs=2, batch_size=16, seed=4)
        _, report = train_task(frozen, make_dataset(n=80), cfg)
        w = report.warmup_steps
        assert w == math.ceil(0.10 * math.ceil(64 / 16) * 2)
        for s, lr in enumerate(report.lr_schedule, start=1):
            expected = cfg.learning_rate * s / w if s <= w else cfg.learning_rate
            assert lr == pytest.approx(expected, rel=1e-12)

    def test_post_clip_norms_bounded(self, frozen):
        cfg = TrainConfig(learning_rate=5e-3, max_epochs=2, clip_norm=0.5, seed=4)
        _, report = train_task(frozen, make_dataset(n=80), cfg)
        assert report.grad_norms
        assert all(n <= 0.5 + 1e-6 for n in report.grad_norms)

    def test_regularization_pressure(self, frozen):
        base = dict(learning_rate=5e-3, max_epochs=3, seed=6)
        _, r0 = train_task(frozen, make_dataset(n=100, seed=8), TrainConfig(reg_lambda=0.0, **base))
        m0 = sum(v**2 for v in r0.final_delta_norms.values())
        _, r1 = train_task(frozen, make_dataset(n=100, seed=8), TrainConfig(reg_lambda=1.0, **base))
        m1 = sum(v**2 for v in r1.final_delta_norms.values())
        assert m1 <= m0

    def test_deterministic_given_seed(self, frozen, monkeypatch):
        from scoremux.orchestrator import module_to_bytes

        cfg = TrainConfig(learning_rate=5e-3, max_epochs=2, seed=12)
        blobs = []
        for clock in (1_000_000_000.0, 2_000_000_000.0):  # the wall clock must not reach the file
            monkeypatch.setattr(time, "time", lambda clock=clock: clock)
            blobs.append(module_to_bytes(train_task(frozen, make_dataset(n=80), cfg)[0]))
        assert blobs[0] == blobs[1]

    def test_early_stop_restores_best_epoch(self, frozen):
        ds = generate_task(TaskSpec("T00", 3, 200, seed=3))
        cfg = TrainConfig(learning_rate=1e-2, max_epochs=4, patience=1, seed=3)
        module, report = train_task(frozen, ds, cfg)
        assert report.stopped_epoch < cfg.max_epochs
        assert len(report.epochs) == report.stopped_epoch
        assert report.best_epoch < report.stopped_epoch
        assert len(report.lr_schedule) == report.stopped_epoch * math.ceil(len(ds.splits.train) / cfg.batch_size)
        val = [(tokenize(it.text, frozen.config), it.score) for it in ds.splits.val]
        weights = effective_weights(frozen, module.adapter)[0]
        val_loss, _ = _eval_split(frozen, weights, module.head, val, cfg.batch_size)
        assert val_loss == report.epochs[report.best_epoch - 1].val_loss

    def test_eval_split_matches_per_item_predict(self, frozen):
        ds = generate_task(TaskSpec("T01", 3, 150, difficulty="medium", seed=4))
        module, _ = train_task(frozen, ds, TrainConfig(learning_rate=2e-2, max_epochs=3, seed=4))
        examples = [(tokenize(it.text, frozen.config), it.score) for it in ds.splits.train]
        golds = [y for _, y in examples]
        weights = effective_weights(frozen, module.adapter)[0]
        per_item = [predict(module.head, frozen.encode(t, weights)) for t, _ in examples]
        ref_loss = sum(-math.log(max(float(p[y]), 1e-12)) for (_, p), y in zip(per_item, golds)) / len(golds)
        loss, agreement = _eval_split(frozen, weights, module.head, examples, 7)
        # batched and single-row float32 encodes differ in the last bits only
        assert loss == pytest.approx(ref_loss, abs=1e-5)
        assert agreement == qwk(golds, [label for label, _ in per_item], ds.num_classes)

    def test_report_text_has_documented_keys(self, frozen):
        _, report = train_task(frozen, make_dataset(n=80), TrainConfig(max_epochs=2, seed=3))
        text = report.to_text()
        for key in ("task_id:", "stopped_epoch:", "best_epoch:", "warmup_steps:", "epoch 1:", "delta_norm["):
            assert key in text

    def test_config_validation(self):
        with pytest.raises(ContractError):
            TrainConfig(learning_rate=0)
        with pytest.raises(ContractError):
            TrainConfig(warmup_fraction=1.0)
        with pytest.raises(ContractError):
            TrainConfig(patience=6, max_epochs=5)
        with pytest.raises(ContractError):
            TrainConfig(reg_lambda=-0.1)


class TestPretrain:
    def test_losses_finite_and_descending_on_average(self):
        bb = Backbone(BackboneConfig(seed=21))
        cfg = bb.config
        gen = np.random.default_rng(2)
        corpus = [
            tokenize(" ".join(f"w{gen.integers(0, 60)}" for _ in range(10)), cfg) for _ in range(40)
        ]
        losses = pretrain_backbone(bb, corpus, TrainConfig(learning_rate=1e-3, batch_size=8, seed=2), epochs=3)
        assert all(math.isfinite(x) for x in losses)
        assert np.mean(losses[-5:]) < np.mean(losses[:5])

    def test_deterministic_given_seed(self, tmp_path):
        corpus = [tokenize(f"a{i} b{i % 7} c{i % 3} d", BackboneConfig()) for i in range(20)]
        runs = []
        for k in range(2):
            bb = Backbone(BackboneConfig(seed=4))
            losses = pretrain_backbone(bb, corpus, TrainConfig(learning_rate=1e-3, batch_size=8, seed=5), epochs=2)
            path = tmp_path / f"bb{k}.bin"
            save_backbone(bb, str(path))
            runs.append((losses, path.read_bytes()))
        assert runs[0][0] == runs[1][0]
        assert runs[0][1] == runs[1][1]

    def test_frozen_rejected(self):
        bb = Backbone(BackboneConfig()).freeze()
        with pytest.raises(FrozenViolationError):
            pretrain_backbone(bb, [tokenize("a b", bb.config)], TrainConfig())
