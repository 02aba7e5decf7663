"""Synthetic task generator statistics and the efficiency benchmark."""

from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest

from scoremux.backbone import Backbone, BackboneConfig, save_backbone
from scoremux.data import load_jsonl
from scoremux.errors import BackboneMismatchError, BenchError, ContractError
from scoremux.heads import MAX_CLASSES, MIN_CLASSES, new_head
from scoremux.numerics import Matrix, Rng
from scoremux.orchestrator import TaskModule, save_task_module
from scoremux.adapters import new_adapter
from scoremux.trainer import TrainConfig
from scoremux.workbench import (
    TaskSpec,
    default_specs,
    generate_task,
    generate_tasks,
    keyword_pools,
    run_benchmark,
    train_full_baseline,
)

CFG = BackboneConfig(seed=5)


def keyword_count_classify(text: str, pools: list[list[str]]) -> int:
    """Bag-of-keywords oracle: class whose pool covers the most tokens."""
    words = text.split()
    hits = [sum(1 for w in words if w in set(pool)) for pool in pools]
    return int(np.argmax(hits))


class TestTaskSpec:
    def test_validation(self):
        with pytest.raises(ContractError):
            TaskSpec("T", num_classes=1)
        with pytest.raises(ContractError):
            TaskSpec("T", num_classes=7)
        with pytest.raises(ContractError):
            TaskSpec("T", num_classes=4, n_items=39)
        with pytest.raises(ContractError):
            TaskSpec("T", difficulty="extreme")

    def test_class_bounds_are_the_heads(self):
        assert TaskSpec("T", num_classes=MIN_CLASSES, n_items=60).num_classes == MIN_CLASSES
        assert TaskSpec("T", num_classes=MAX_CLASSES, n_items=60).num_classes == MAX_CLASSES
        with pytest.raises(ContractError, match=rf"\[{MIN_CLASSES}, {MAX_CLASSES}\]"):
            TaskSpec("T", num_classes=MAX_CLASSES + 1)

    def test_default_specs_shape(self):
        specs = default_specs()
        assert len(specs) == 27
        assert len({s.task_id for s in specs}) == 27
        assert {s.difficulty for s in specs} == {"easy", "medium"}
        assert {s.num_classes for s in specs} == {2, 3, 4, 5, 6}


@pytest.fixture(scope="module")
def easy():
    return TaskSpec("T00", num_classes=3, n_items=600, difficulty="easy", seed=3)


class TestGenerator:

    def test_mean_length_in_band(self, easy):
        ds = generate_task(easy)
        lengths = [len(it.text.split()) for it in ds.items]
        assert 18 <= np.mean(lengths) <= 22
        assert min(lengths) >= 3

    def test_labels_balanced_and_complete(self, easy):
        ds = generate_task(easy)
        counts = np.bincount([it.score for it in ds.items], minlength=3)
        assert (counts > 0).all()
        target = easy.n_items / easy.num_classes
        assert np.abs(counts - target).max() <= 0.10 * target

    def test_easy_task_linearly_separable_by_keyword_counts(self, easy):
        ds = generate_task(easy)
        pools, _ = keyword_pools(easy)
        acc = np.mean([keyword_count_classify(it.text, pools) == it.score for it in ds.items])
        assert acc >= 0.95

    def test_medium_has_label_noise_but_stays_learnable(self):
        spec = TaskSpec("T01", num_classes=3, n_items=600, difficulty="medium", seed=3)
        ds = generate_task(spec)
        pools, _ = keyword_pools(spec)
        acc = np.mean([keyword_count_classify(it.text, pools) == it.score for it in ds.items])
        assert 0.85 <= acc < 1.0

    def test_texts_unique(self, easy):
        ds = generate_task(easy)
        assert len({it.text for it in ds.items}) == len(ds.items)

    def test_deterministic_per_seed(self, easy):
        a = generate_task(easy)
        b = generate_task(easy)
        assert [(i.text, i.score) for i in a.items] == [(i.text, i.score) for i in b.items]
        c = generate_task(TaskSpec("T00", num_classes=3, n_items=600, difficulty="easy", seed=4))
        assert [(i.text, i.score) for i in a.items] != [(i.text, i.score) for i in c.items]

    def test_generate_tasks_writes_files_and_manifest(self, tmp_path):
        specs = default_specs(n_tasks=27, n_items=60, seed=1)
        datasets, manifest = generate_tasks(specs, out_dir=str(tmp_path))
        assert len(datasets) == 27
        assert len(manifest["tasks"]) == 27
        assert sorted(e["id"] for e in manifest["tasks"]) == sorted(s.task_id for s in specs)
        files = {p.name for p in tmp_path.iterdir()}
        assert "manifest.json" in files and "T00.jsonl" in files and len(files) == 28
        with open(tmp_path / "T03.jsonl", encoding="utf-8") as fh:
            rec = json.loads(fh.readline())
        assert set(rec) == {"task", "text", "score"}
        loaded = load_jsonl(str(tmp_path / "T03.jsonl"))
        assert loaded.task_id == "T03"
        assert len(loaded.items) == 60

    @pytest.mark.parametrize(
        "bad",
        [
            pytest.param({"task": "A", "text": 5, "score": 1}, id="text-not-string"),
            pytest.param({"task": "A", "text": "y", "score": 0.9}, id="float-score"),
            pytest.param({"task": "A", "text": "y", "score": True}, id="bool-score"),
            pytest.param({"task": "B", "text": "y", "score": 1}, id="other-task"),
            pytest.param({"task": "A", "text": "y", "score": -1}, id="negative-score"),
            pytest.param({"task": "A", "text": "y", "score": MAX_CLASSES}, id="score-at-max-classes"),
            pytest.param({"task": "A", "text": "y", "score": 100000}, id="outlier-score"),
        ],
    )
    def test_load_jsonl_bad_record_named_by_line(self, tmp_path, bad):
        path = tmp_path / "d.jsonl"
        path.write_text(json.dumps({"task": "A", "text": "x", "score": 0}) + "\n" + json.dumps(bad) + "\n")
        with pytest.raises(ContractError, match=r"d\.jsonl:2: "):
            load_jsonl(str(path))

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ContractError, match="duplicate"):
            generate_tasks([TaskSpec("T", seed=1, n_items=60), TaskSpec("T", seed=2, n_items=60)])


def build_bench_env(tmp_path, n_tasks=5):
    bb = Backbone(CFG).freeze()
    ckpt = tmp_path / "bb.bin"
    save_backbone(bb, str(ckpt))
    paths = {}
    for i in range(n_tasks):
        tid = f"T{i:02d}"
        module = TaskModule(
            adapter=new_adapter(tid, CFG, rng=Rng(i)),
            head=new_head(tid, 2 + i % 5, CFG.d_model, Rng(i)),
            backbone_fingerprint=bb.frozen_fingerprint,
        )
        path = tmp_path / f"{tid}.mod"
        save_task_module(module, str(path))
        paths[tid] = str(path)
    return bb, str(ckpt), paths


class TestBenchmark:
    def test_byte_totals_exactly_shape_derived(self, tmp_path):
        bb, ckpt, paths = build_bench_env(tmp_path)
        report = run_benchmark(bb, paths, ckpt, workload=None, switches=12, warmup_discard=2)
        backbone_params = bb.param_count(include_mlm_head=False)
        assert backbone_params == 135_040
        assert report.backbone_param_bytes == backbone_params * 4
        for i, tid in enumerate(sorted(paths)):
            c = 2 + i % 5
            expected = (4 * 1024 + c * 64 + c) * 4
            assert report.module_bytes[i] == expected
            assert report.module_bytes[i] / (report.backbone_param_bytes + (c * 64 + c) * 4) <= 0.05
        assert report.framework_total_bytes == report.backbone_param_bytes + sum(report.module_bytes)
        heads = [(2 + i % 5) * 65 * 4 for i in range(5)]
        assert report.baseline_total_bytes == sum(report.backbone_param_bytes + h for h in heads)
        assert 0 <= report.memory_reduction_fraction < 1

    def test_switch_latency_framework_beats_baseline(self, tmp_path):
        bb, ckpt, paths = build_bench_env(tmp_path)
        report = run_benchmark(bb, paths, ckpt, workload=None, switches=40, warmup_discard=5)
        assert report.framework_switch_us["median_us"] < report.baseline_switch_us["median_us"]
        assert report.latency_reduction_fraction > 0

    def test_workload_replay_conserves_requests(self, tmp_path):
        bb, ckpt, paths = build_bench_env(tmp_path)
        tasks = sorted(paths)
        workload = [(tasks[i % len(tasks)], f"text {i}") for i in range(40)]
        report = run_benchmark(bb, paths, ckpt, workload=workload, capacity=2, switches=12, warmup_discard=2)
        w = report.workload
        assert w["responses"] == w["requests"] == 40
        assert w["hits"] + w["misses"] == 40
        assert w["evictions"] == max(0, w["loads"] - 2)

    def test_each_framework_switch_is_one_registry_admission(self, tmp_path, monkeypatch):
        from scoremux import orchestrator

        bb, ckpt, paths = build_bench_env(tmp_path, n_tasks=1)
        derived = []
        real = orchestrator.effective_weights
        monkeypatch.setattr(orchestrator, "effective_weights", lambda b, ad: derived.append(ad.task_id) or real(b, ad))
        run_benchmark(bb, paths, ckpt, workload=None, switches=12, warmup_discard=2)
        assert derived == ["T00"] * 12  # a one-slot registry per switch: a miss even with one task

    def test_module_for_another_backbone_refused(self, tmp_path):
        _, _, paths = build_bench_env(tmp_path)
        other = Backbone(dataclasses.replace(CFG, seed=6)).freeze()
        save_backbone(other, str(tmp_path / "other.bin"))
        with pytest.raises(BackboneMismatchError):
            run_benchmark(other, paths, str(tmp_path / "other.bin"), switches=12, warmup_discard=2)

    def test_checkpoint_with_other_weights_rejected(self, tmp_path):
        bb, _, paths = build_bench_env(tmp_path)
        changed = Backbone(CFG)
        changed.set_param("layer0.b1", Matrix(changed.params["layer0.b1"].data + 1.0))
        save_backbone(changed.freeze(), str(tmp_path / "changed.bin"))
        with pytest.raises(BenchError, match="weights"):
            run_benchmark(bb, paths, str(tmp_path / "changed.bin"), switches=12, warmup_discard=2)

    def test_missing_module_named_in_error(self, tmp_path):
        bb, ckpt, paths = build_bench_env(tmp_path)
        paths["T99"] = str(tmp_path / "nope.mod")
        with pytest.raises(BenchError, match="T99"):
            run_benchmark(bb, paths, ckpt, switches=12, warmup_discard=2)

    def test_report_json_key_order(self, tmp_path):
        bb, ckpt, paths = build_bench_env(tmp_path, n_tasks=3)
        report = run_benchmark(bb, paths, ckpt, switches=12, warmup_discard=2)
        doc = json.loads(report.to_json())
        assert list(doc) == [
            "backbone_param_bytes",
            "module_bytes",
            "baseline_total_bytes",
            "framework_total_bytes",
            "capacity",
            "framework_switch_us",
            "baseline_switch_us",
            "memory_reduction_fraction",
            "latency_reduction_fraction",
            "workload",
            "accuracy_gap",
        ]


class TestFullBaseline:
    def test_trains_and_scores_tiny_task(self):
        cfg = BackboneConfig(vocab_size=150, d_model=16, n_layers=1, n_heads=2, d_ff=32, max_seq_len=32, seed=2)
        bb = Backbone(cfg).freeze()
        ds = generate_task(TaskSpec("T00", num_classes=2, n_items=60, difficulty="easy", seed=6))
        head, test_qwk = train_full_baseline(
            bb, ds, TrainConfig(learning_rate=5e-3, batch_size=16, max_epochs=2, seed=3)
        )
        assert head.num_classes == 2
        assert -1.0 <= test_qwk <= 1.0
        # the original frozen backbone must be untouched by baseline training
        assert bb.fingerprint() == bb.frozen_fingerprint

    def test_optimizer_gets_no_slot_for_the_unread_mlm_head(self, monkeypatch):
        from scoremux import workbench

        names = []
        monkeypatch.setattr(workbench, "fit", lambda slots, *args: names.extend(slot.name for slot in slots))
        cfg = BackboneConfig(vocab_size=150, d_model=16, n_layers=1, n_heads=2, d_ff=32, max_seq_len=32, seed=2)
        bb = Backbone(cfg).freeze()
        ds = generate_task(TaskSpec("T00", num_classes=2, n_items=60, difficulty="easy", seed=6))
        train_full_baseline(bb, ds, TrainConfig(batch_size=16, max_epochs=1, patience=1, seed=3))
        assert "mlm_head" not in names
        assert set(names) == (set(bb.params) - {"mlm_head"}) | {"head.weight", "head.bias"}

    def test_accuracy_gap_comparison_pairs_qwk_vectors(self, tmp_path):
        from scoremux.workbench import accuracy_gap_comparison

        cfg = BackboneConfig(vocab_size=150, d_model=16, n_layers=1, n_heads=2, d_ff=32, max_seq_len=32, seed=2)
        bb = Backbone(cfg).freeze()
        paths = {}
        datasets = {}
        for i in range(2):
            tid = f"T{i:02d}"
            ds = generate_task(TaskSpec(tid, num_classes=2, n_items=60, difficulty="easy", seed=6 + i))
            datasets[tid] = ds
            module = TaskModule(
                adapter=new_adapter(tid, cfg, rng=Rng(i)),
                head=new_head(tid, 2, cfg.d_model, Rng(i)),
                backbone_fingerprint=bb.frozen_fingerprint,
            )
            path = tmp_path / f"{tid}.mod"
            save_task_module(module, str(path))
            paths[tid] = str(path)
        gap = accuracy_gap_comparison(
            bb, paths, datasets, n_tasks=2,
            config=TrainConfig(learning_rate=5e-3, batch_size=16, max_epochs=2, seed=3),
        )
        assert gap["tasks"] == ["T00", "T01"]
        assert len(gap["framework_qwk"]) == len(gap["baseline_qwk"]) == 2
        assert "p" in gap and 0.0 <= gap["p"] <= 1.0

    def test_accuracy_gap_refuses_modules_for_another_backbone(self, tmp_path):
        from scoremux.workbench import accuracy_gap_comparison

        cfg = BackboneConfig(vocab_size=150, d_model=16, n_layers=1, n_heads=2, d_ff=32, max_seq_len=32, seed=1)
        trained_on = Backbone(cfg).freeze()
        other = Backbone(dataclasses.replace(cfg, seed=2)).freeze()
        paths, datasets = {}, {}
        for i in range(2):
            tid = f"T{i:02d}"
            datasets[tid] = generate_task(TaskSpec(tid, num_classes=2, n_items=60, difficulty="easy", seed=6 + i))
            module = TaskModule(
                new_adapter(tid, cfg, rng=Rng(i)), new_head(tid, 2, cfg.d_model, Rng(i)), trained_on.frozen_fingerprint
            )
            paths[tid] = str(tmp_path / f"{tid}.mod")
            save_task_module(module, paths[tid])
        with pytest.raises(BackboneMismatchError):
            accuracy_gap_comparison(
                other, paths, datasets, n_tasks=2,
                config=TrainConfig(learning_rate=5e-3, batch_size=16, max_epochs=2, seed=3),
            )
