"""End-to-end CLI flows over a tiny configuration."""

from __future__ import annotations

import io
import json
import os
import socket
import subprocess
import sys
import threading
import time
from contextlib import redirect_stdout
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import scoremux
from scoremux import cli, orchestrator
from scoremux.adapters import LoraConfig
from scoremux.backbone import BackboneConfig, load_backbone
from scoremux.cli import main
from scoremux.errors import ScoreMuxError
from scoremux.numerics import P64
from scoremux.orchestrator import Registry, TcpTransport, load_registry_manifest, load_task_module, score, serve
from scoremux.trainer import TrainConfig

TINY_BACKBONE = [
    "--vocab-size", "200", "--d-model", "16", "--layers", "1",
    "--heads", "2", "--d-ff", "32", "--max-seq-len", "48",
]


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """gen-data + pretrain + finetune once; later tests reuse the artifacts."""
    root = tmp_path_factory.mktemp("cli")
    data = root / "data"
    assert main(["gen-data", "--tasks", "3", "--items", "120", "--seed", "4", "--out", str(data)]) == 0

    corpus = root / "corpus.txt"
    lines = []
    for name in ("T00", "T01", "T02"):
        with open(data / f"{name}.jsonl", encoding="utf-8") as fh:
            lines += [json.loads(l)["text"] for l in fh][:20]
    corpus.write_text("\n".join(lines), encoding="utf-8")

    bb_path = root / "backbone.bin"
    assert main([
        "pretrain", "--corpus", str(corpus), "--out", str(bb_path),
        "--mlm-epochs", "1", "--lr", "1e-4", "--batch-size", "16", "--seed", "4", *TINY_BACKBONE,
    ]) == 0

    mod_dir = root / "modules"
    mod_dir.mkdir()
    for name in ("T00", "T01", "T02"):
        assert main([
            "finetune", "--backbone", str(bb_path), "--data", str(data / f"{name}.jsonl"),
            "--out", str(mod_dir / f"{name}.mod"), "--report", str(root / f"{name}.report.txt"),
            "--lr", "1e-2", "--batch-size", "8", "--epochs", "5", "--seed", "4",
        ]) == 0
    return root


class TestGenData:
    def test_writes_files(self, workdir):
        files = {p.name for p in (workdir / "data").iterdir()}
        assert files == {"T00.jsonl", "T01.jsonl", "T02.jsonl", "manifest.json"}
        manifest = json.loads((workdir / "data" / "manifest.json").read_text())
        assert [e["id"] for e in manifest["tasks"]] == ["T00", "T01", "T02"]

    def test_spec_file_input(self, tmp_path):
        spec = tmp_path / "specs.json"
        spec.write_text(json.dumps([
            {"task_id": "A1", "num_classes": 2, "n_items": 30, "difficulty": "easy", "seed": 1},
        ]))
        assert main(["gen-data", "--spec", str(spec), "--out", str(tmp_path / "out")]) == 0
        assert (tmp_path / "out" / "A1.jsonl").exists()

    @pytest.mark.parametrize(
        "raw",
        [
            pytest.param([{"task_id": "T00", "bogus": 1}], id="unknown-key"),
            pytest.param([5], id="entry-not-object"),
            pytest.param({"task_id": "T00"}, id="not-array"),
            pytest.param([{"num_classes": 2}], id="no-task-id"),
            pytest.param([{"task_id": "T00", "num_classes": 2.5}], id="float-for-int"),
            pytest.param([{"task_id": "T00", "seed": True}], id="bool-for-int"),
            pytest.param([{"task_id": 7}], id="int-for-str"),
        ],
    )
    def test_bad_spec_exits_1_with_one_line(self, tmp_path, capsys, raw):
        spec = tmp_path / "specs.json"
        spec.write_text(json.dumps(raw))
        assert main(["gen-data", "--spec", str(spec), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("scoremux gen-data:") and err.count("\n") == 1
        assert not (tmp_path / "out").exists()


class TestPretrain:
    def test_checkpoint_is_frozen_and_loadable(self, workdir):
        bb = load_backbone(str(workdir / "backbone.bin"))
        assert bb.frozen and bb.frozen_fingerprint
        assert bb.config.d_model == 16

    def test_without_corpus_gives_fresh_frozen_backbone(self, tmp_path):
        out = tmp_path / "fresh.bin"
        assert main(["pretrain", "--out", str(out), "--seed", "9", *TINY_BACKBONE]) == 0
        assert load_backbone(str(out)).frozen


class TestFinetune:
    def test_module_and_report_written(self, workdir):
        module = load_task_module(str(workdir / "modules" / "T00.mod"))
        assert module.task_id == "T00"
        report = (workdir / "T00.report.txt").read_text()
        assert "stopped_epoch:" in report and "epoch 1:" in report

    def test_same_seed_runs_write_identical_modules(self, workdir, tmp_path, monkeypatch):
        outs = []
        for clock in (1_000_000_000.0, 2_000_000_000.0):  # the wall clock must not reach the file
            monkeypatch.setattr(time, "time", lambda clock=clock: clock)
            out = tmp_path / f"{int(clock)}.mod"
            assert main([
                "finetune", "--backbone", str(workdir / "backbone.bin"), "--data", str(workdir / "data" / "T00.jsonl"),
                "--out", str(out), "--lr", "1e-2", "--batch-size", "8", "--epochs", "2", "--seed", "4",
            ]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_module_ties_to_backbone_fingerprint(self, workdir):
        bb = load_backbone(str(workdir / "backbone.bin"))
        module = load_task_module(str(workdir / "modules" / "T01.mod"))
        assert module.backbone_fingerprint == bb.frozen_fingerprint


class TestEval:
    def test_eval_report_keys_and_learning(self, workdir, capsys):
        out = workdir / "eval_T00.json"
        assert main([
            "eval", "--backbone", str(workdir / "backbone.bin"),
            "--module", str(workdir / "modules" / "T00.mod"),
            "--data", str(workdir / "data" / "T00.jsonl"), "--seed", "4",
            "--out", str(out),
        ]) == 0
        doc = json.loads(out.read_text())
        assert list(doc) == ["task_id", "n_test", "qwk", "accuracy", "macro_f1", "confusion"]
        assert doc["task_id"] == "T00"
        assert doc["n_test"] == 12
        assert sum(sum(row) for row in doc["confusion"]) == doc["n_test"]
        assert doc["qwk"] >= 0.8  # easy task, end-to-end learning sanity

    def test_pipeline_determinism(self, workdir, tmp_path):
        # rerun the whole chain with the same seeds: byte-identical eval report
        reports = []
        for run in ("one", "two"):
            root = tmp_path / run
            data = root / "data"
            assert main(["gen-data", "--tasks", "1", "--items", "80", "--seed", "11", "--out", str(data)]) == 0
            corpus = root / "corpus.txt"
            with open(data / "T00.jsonl", encoding="utf-8") as fh:
                corpus.write_text("\n".join(json.loads(l)["text"] for l in fh), encoding="utf-8")
            bb = root / "bb.bin"
            assert main([
                "pretrain", "--corpus", str(corpus), "--out", str(bb),
                "--lr", "1e-4", "--seed", "11", *TINY_BACKBONE,
            ]) == 0
            mod = root / "T00.mod"
            assert main([
                "finetune", "--backbone", str(bb), "--data", str(data / "T00.jsonl"),
                "--out", str(mod), "--lr", "5e-3", "--epochs", "2", "--seed", "11",
            ]) == 0
            out = root / "eval.json"
            assert main([
                "eval", "--backbone", str(bb), "--module", str(mod),
                "--data", str(data / "T00.jsonl"), "--seed", "11", "--out", str(out),
            ]) == 0
            reports.append(out.read_bytes())
        assert reports[0] == reports[1]


class TestBench:
    def test_bench_report_written(self, workdir, capsys):
        out = workdir / "bench.json"
        assert main([
            "bench", "--backbone", str(workdir / "backbone.bin"),
            "--modules", str(workdir / "modules"),
            "--capacity", "2", "--switches", "15", "--requests", "30",
            "--out", str(out),
        ]) == 0
        doc = json.loads(out.read_text())
        assert doc["workload"]["responses"] == 30
        assert doc["framework_total_bytes"] < doc["baseline_total_bytes"]
        assert doc["accuracy_gap"] == {}

    def test_bench_with_accuracy_baselines(self, workdir):
        out = workdir / "bench_gap.json"
        assert main([
            "bench", "--backbone", str(workdir / "backbone.bin"),
            "--modules", str(workdir / "modules"), "--data", str(workdir / "data"),
            "--switches", "12", "--requests", "6", "--accuracy-baselines", "2",
            "--seed", "4", "--out", str(out),
        ]) == 0
        gap = json.loads(out.read_text())["accuracy_gap"]
        assert gap["tasks"] == ["T00", "T01"]
        assert len(gap["framework_qwk"]) == 2 and "p" in gap

    def test_accuracy_baselines_for_another_backbone_exits_1(self, workdir, tmp_path, capsys):
        other = tmp_path / "other.bin"
        assert main(["pretrain", "--out", str(other), "--seed", "9", *TINY_BACKBONE]) == 0
        capsys.readouterr()
        assert main([
            "bench", "--backbone", str(other), "--modules", str(workdir / "modules"),
            "--data", str(workdir / "data"), "--switches", "12", "--requests", "0", "--accuracy-baselines", "1",
        ]) == 1
        err = capsys.readouterr().err.strip()
        assert err.startswith("scoremux bench:") and "another backbone" in err and "\n" not in err

    def test_module_for_another_backbone_exits_1(self, workdir, tmp_path, capsys):
        other = tmp_path / "other.bin"
        assert main(["pretrain", "--out", str(other), "--seed", "9", *TINY_BACKBONE]) == 0
        capsys.readouterr()
        assert main([
            "bench", "--backbone", str(other), "--modules", str(workdir / "modules"),
            "--switches", "12", "--requests", "0",
        ]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("scoremux bench:") and "another backbone" in captured.err
        assert captured.err.count("\n") == 1

    def test_accuracy_baselines_requires_data(self, workdir, capsys):
        assert main([
            "bench", "--backbone", str(workdir / "backbone.bin"),
            "--modules", str(workdir / "modules"),
            "--switches", "12", "--accuracy-baselines", "1",
        ]) == 1
        assert "--data" in capsys.readouterr().err


class TestServe:
    def test_stdio_one_request_one_response(self, workdir, capsys, monkeypatch):
        manifest = workdir / "registry.json"
        mapping = {f"T{i:02d}": str(workdir / "modules" / f"T{i:02d}.mod") for i in range(3)}
        manifest.write_text(json.dumps(mapping))
        request = json.dumps({"id": 7, "task": "T01", "text": "eine antwort"})
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO((request + "\n").encode())))
        assert main([
            "serve", "--backbone", str(workdir / "backbone.bin"), "--manifest", str(manifest),
        ]) == 0
        lines = [l for l in capsys.readouterr().out.splitlines() if l.startswith("{")]
        doc = json.loads(lines[-1])
        assert doc["id"] == 7 and doc["task"] == "T01"
        assert len(doc["probs"]) >= 2

    def test_manifest_entry_holding_another_task_exits_1(self, workdir, tmp_path, capsys):
        manifest = tmp_path / "registry.json"
        manifest.write_text(json.dumps({"T00": str(workdir / "modules" / "T01.mod")}))
        assert main(["serve", "--backbone", str(workdir / "backbone.bin"), "--manifest", str(manifest)]) == 1
        err = capsys.readouterr().err.strip()
        assert err.startswith("scoremux serve:") and "'T01', not 'T00'" in err


class TestCompare:
    def test_paired_t_test_output(self, tmp_path, capsys):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        a.write_text(json.dumps([0.9, 0.8, 0.85, 0.7, 0.95]))
        b.write_text(json.dumps([0.88, 0.78, 0.8, 0.71, 0.9]))
        assert main(["compare", "--a", str(a), "--b", str(b)]) == 0
        doc = json.loads(capsys.readouterr().out.strip())
        assert set(doc) == {"t", "p", "n", "significant_at_0.05"}
        assert doc["n"] == 5

    @pytest.mark.parametrize(
        "a, b",
        [
            pytest.param([1e308, -1e308], [-1e308, 1e308], id="differences-overflow"),
            pytest.param([1e308, 1.5e308], [0, 0], id="mean-overflows"),
        ],
    )
    def test_overflowing_differences_rejected(self, tmp_path, capsys, a, b):
        # finite inputs whose differences, mean or sd leave the float range would print NaN
        pa, pb = tmp_path / "a.json", tmp_path / "b.json"
        pa.write_text(json.dumps(a))
        pb.write_text(json.dumps(b))
        assert main(["compare", "--a", str(pa), "--b", str(pb)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("scoremux compare:") and captured.err.count("\n") == 1

    def test_non_numeric_vector_rejected(self, tmp_path, capsys):
        a = tmp_path / "a.json"
        a.write_text(json.dumps(["x"]))
        assert main(["compare", "--a", str(a), "--b", str(a)]) == 1

    @pytest.mark.parametrize(
        "bad", ["NaN", "Infinity", "-Infinity", "1e400", pytest.param("1" * 400, id="400-digit-int"), "true", "false"]
    )
    def test_non_finite_or_boolean_entry_rejected(self, tmp_path, capsys, bad):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        a.write_text(f"[0.9, 0.8, {bad}]")
        b.write_text("[0.88, 0.78, 0.8]")
        assert main(["compare", "--a", str(a), "--b", str(b)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "finite numbers" in captured.err


class TestErrors:
    def test_unknown_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_missing_file_single_line_diagnostic(self, tmp_path, capsys):
        code = main([
            "finetune", "--backbone", str(tmp_path / "none.bin"),
            "--data", str(tmp_path / "none.jsonl"), "--out", str(tmp_path / "x.mod"),
        ])
        assert code == 1
        err = capsys.readouterr().err.strip()
        assert err.startswith("scoremux finetune:") and "\n" not in err

    def test_bad_dataset_record_single_line_diagnostic(self, workdir, tmp_path, capsys):
        data = tmp_path / "T.jsonl"
        data.write_text("".join(json.dumps({"task": "T", "text": i, "score": 0}) + "\n" for i in range(20)))
        code = main([
            "finetune", "--backbone", str(workdir / "backbone.bin"),
            "--data", str(data), "--out", str(tmp_path / "x.mod"),
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("scoremux finetune:") and "T.jsonl:1:" in err and err.count("\n") == 1


    def test_out_of_range_score_names_file_and_line(self, workdir, tmp_path, capsys):
        data = tmp_path / "T.jsonl"
        records = [{"task": "T", "text": f"antwort {i}", "score": i % 2} for i in range(20)]
        records[7]["score"] = 100000
        data.write_text("".join(json.dumps(r) + "\n" for r in records))
        code = main([
            "finetune", "--backbone", str(workdir / "backbone.bin"),
            "--data", str(data), "--out", str(tmp_path / "x.mod"),
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("scoremux finetune:") and "T.jsonl:8:" in err and err.count("\n") == 1
        assert not (tmp_path / "x.mod").exists()


class TestOptions:
    @pytest.mark.parametrize("argv", [
        ["serve", "--backbone", "b.bin", "--manifest", "m.json", "--precision", "64"],
        ["serve", "--backbone", "b.bin", "--manifest", "m.json", "--seed", "1"],
        ["compare", "--a", "a.json", "--b", "b.json", "--seed", "1"],
        ["eval", "--backbone", "b.bin", "--module", "m.mod", "--data", "d.jsonl", "--precision", "64"],
    ])
    def test_options_that_duplicate_inputs_are_unknown(self, argv):
        # every other argument is valid, so only the dropped flag can exit 2
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2

    @pytest.mark.parametrize("flag", [["--epochs", "1"], ["--patience", "3"], ["--reg-lambda", "0"]])
    def test_pretrain_takes_only_the_options_mlm_reads(self, tmp_path, flag):
        with pytest.raises(SystemExit) as exc:
            main(["pretrain", "--out", str(tmp_path / "b.bin"), *flag])
        assert exc.value.code == 2

    def test_training_defaults_are_the_config_defaults(self, tmp_path, monkeypatch):
        built = {}

        def fake_pretrain(bb, sequences, config, epochs):
            built["pretrain"] = (bb.config, config)
            return [0.0]

        def fake_train(bb, dataset, train_config, lora_config):
            built["finetune"] = (train_config, lora_config)
            raise ScoreMuxError("stop after parsing")

        monkeypatch.setattr(cli, "pretrain_backbone", fake_pretrain)
        monkeypatch.setattr(cli, "train_task", fake_train)
        corpus, bb, data = tmp_path / "corpus.txt", tmp_path / "bb.bin", tmp_path / "T.jsonl"
        corpus.write_text("ein satz\n", encoding="utf-8")
        data.write_text(json.dumps({"task": "T", "text": "x", "score": 1}) + "\n", encoding="utf-8")
        assert main(["pretrain", "--corpus", str(corpus), "--out", str(bb)]) == 0
        assert main(["finetune", "--backbone", str(bb), "--data", str(data), "--out", str(tmp_path / "T.mod")]) == 1
        assert built["pretrain"] == (BackboneConfig(), TrainConfig(seed=0))
        assert built["finetune"] == (TrainConfig(seed=0), LoraConfig())

    def test_eval_of_module_for_another_backbone_exits_1(self, workdir, tmp_path, capsys):
        other = tmp_path / "other.bin"
        assert main(["pretrain", "--out", str(other), "--seed", "9", *TINY_BACKBONE]) == 0
        capsys.readouterr()
        assert main([
            "eval", "--backbone", str(other), "--module", str(workdir / "modules" / "T00.mod"),
            "--data", str(workdir / "data" / "T00.jsonl"), "--seed", "4",
        ]) == 1
        err = capsys.readouterr().err.strip()
        assert err.startswith("scoremux eval:") and "another backbone" in err and "\n" not in err


def test_float64_pipeline_takes_precision_from_checkpoint(workdir, tmp_path, monkeypatch, capsys):
    bb_path, mods, data = tmp_path / "bb64.bin", tmp_path / "modules", workdir / "data" / "T00.jsonl"
    mods.mkdir()
    mod = mods / "T00.mod"
    assert main([
        "pretrain", "--precision", "64", "--corpus", str(workdir / "corpus.txt"), "--out", str(bb_path),
        "--lr", "1e-4", "--batch-size", "16", "--seed", "4", *TINY_BACKBONE,
    ]) == 0
    assert main([
        "finetune", "--backbone", str(bb_path), "--data", str(data), "--out", str(mod),
        "--lr", "1e-2", "--batch-size", "8", "--epochs", "2", "--seed", "4",
    ]) == 0
    assert main([
        "eval", "--backbone", str(bb_path), "--module", str(mod), "--data", str(data),
        "--seed", "4", "--out", str(tmp_path / "eval.json"),
    ]) == 0
    manifest = tmp_path / "registry.json"
    manifest.write_text(json.dumps({"T00": str(mod)}))
    request = json.dumps({"id": 1, "task": "T00", "text": "eine antwort"})
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO((request + "\n").encode())))
    capsys.readouterr()
    assert main(["serve", "--backbone", str(bb_path), "--manifest", str(manifest)]) == 0
    served = json.loads(capsys.readouterr().out)
    out = tmp_path / "bench.json"
    assert main([
        "bench", "--backbone", str(bb_path), "--modules", str(mods),
        "--switches", "12", "--requests", "5", "--out", str(out),
    ]) == 0

    bb = load_backbone(str(bb_path))
    assert bb.precision is P64
    registry = Registry(capacity=1)
    registry.register("T00", str(mod))
    assert served["probs"] == list(score(registry, bb, "T00", "eine antwort").probs)
    doc = json.loads(out.read_text())
    assert doc["module_bytes"] == [8 * load_task_module(str(mod)).param_count()]
    assert doc["workload"]["responses"] == 5


@pytest.fixture(scope="module")
def manifest(workdir):
    path = workdir / "serve_manifest.json"
    path.write_text(json.dumps({f"T{i:02d}": str(workdir / "modules" / f"T{i:02d}.mod") for i in range(3)}))
    return path


def serve_subprocess(workdir, manifest, stdin: bytes, encoding: str | None) -> list[dict]:
    """Run `scoremux serve` over stdio with PYTHONIOENCODING set to `encoding` (None: unset)."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(scoremux.__file__)))
    env.pop("PYTHONIOENCODING", None)
    if encoding is not None:
        env["PYTHONIOENCODING"] = encoding
    proc = subprocess.run(
        [sys.executable, "-m", "scoremux.cli", "serve", "--backbone", str(workdir / "backbone.bin"),
         "--manifest", str(manifest)],
        input=stdin, capture_output=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr.decode(errors="replace")
    return [json.loads(line) for line in proc.stdout.decode().splitlines()]


_TRACED_RUN = """
import json, os, sys
import tracer
recorder = tracer.Recorder()
tracer.install(recorder)
from scoremux import orchestrator, trainer
from scoremux.backbone import Backbone, BackboneConfig
from scoremux.workbench import TaskSpec, generate_task
bb = Backbone(BackboneConfig(vocab_size=60, d_model=8, n_layers=1, n_heads=2, d_ff=16, max_seq_len=24)).freeze()
data = generate_task(TaskSpec("T00", 2, 40, seed=1))
module, _ = trainer.train_task(bb, data, trainer.TrainConfig(max_epochs=1, patience=1, batch_size=16))
path = os.path.join(sys.argv[1], "T00.mod")
orchestrator.save_task_module(module, path)
registry = orchestrator.Registry(capacity=1)
registry.register("T00", path)
answer = json.loads(orchestrator.handle_request_line(registry, bb, json.dumps({"id": 1, "task": "T00", "text": "ein"})))
assert "label" in answer, answer
spans = [rec for thread in recorder._threads for rec in thread]
assert len(recorder._threads) == 1
children = {}
for i, rec in enumerate(spans):
    children.setdefault(rec[0], set()).update(c[0] for c in spans if c[3] == i)
print(json.dumps({name: sorted(kids) for name, kids in children.items()}))
"""


def test_benchmark_tracer_installs(tmp_path):
    """Every name perfbench's tracer wraps still exists, and its spans nest as perfbench/layers.py reads them.

    install rewrites module globals, hence the subprocess. layers.py takes the
    per-layer serve numbers from the direct children of `orchestrator.score`
    and the train numbers from those of `trainer.train_task`; an empty list
    there puts NaN on the benchmark's last line.
    """
    root = os.path.dirname(os.path.dirname(os.path.dirname(scoremux.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([os.path.join(root, "src"), os.path.join(root, "perfbench")]))
    proc = subprocess.run(
        [sys.executable, "-c", _TRACED_RUN, str(tmp_path)], capture_output=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr.decode(errors="replace")
    children = json.loads(proc.stdout.decode().splitlines()[-1])
    assert {"backbone.tokenize", "backbone.encode", "heads.predict"} <= set(children["orchestrator.score"])
    assert {"trainer.step", "backbone.encode"} <= set(children["trainer.train_task"])
    # a module load nests its adapter parse, or the benchmark's adapters.parse_us_p50 reads NaN
    assert "adapters.parse" in children["orchestrator.load"]


def without_latency(doc: dict) -> dict:
    return {k: v for k, v in doc.items() if k != "latency_us"}


class TestStdinEncoding:
    def test_undecodable_bytes_are_malformed_under_utf8_stdio(self, workdir, manifest):
        valid = [json.dumps({"id": i, "task": "T01", "text": "eine antwort"}).encode() for i in (1, 3)]
        docs = serve_subprocess(workdir, manifest, valid[0] + b"\n\xff\xfe\n" + valid[1] + b"\n", "utf-8")
        assert len(docs) == 3
        assert docs[0]["id"] == 1 and docs[0]["task"] == "T01"
        assert docs[1] == {"error": "malformed_request"}
        assert docs[2]["id"] == 3 and docs[2]["task"] == "T01"

    def test_unescaped_utf8_same_answer_under_every_stdin_encoding_and_tcp(self, workdir, manifest):
        text = "über größe"
        line = json.dumps({"id": 1, "task": "T00", "text": text}, ensure_ascii=False).encode("utf-8") + b"\n"
        answers = [serve_subprocess(workdir, manifest, line, enc) for enc in (None, "utf-8", "latin-1")]

        bb = load_backbone(str(workdir / "backbone.bin"))
        transport = TcpTransport(port=0)
        server = threading.Thread(
            target=serve, args=(load_registry_manifest(str(manifest)), bb, transport), daemon=True
        )
        server.start()
        try:
            with socket.create_connection(("127.0.0.1", transport.port), timeout=5) as conn:
                conn.sendall(line)
                with conn.makefile("rb") as reader:
                    answers.append([json.loads(reader.readline())])
        finally:
            transport.stop()
            server.join(timeout=5)
        assert not server.is_alive()

        registry = load_registry_manifest(str(manifest))
        expected = score(registry, bb, "T00", text)
        assert answers[0][0]["probs"] == list(expected.probs)
        assert all([without_latency(d) for d in a] == [without_latency(answers[0][0])] for a in answers)


# arbitrary byte lines, and JSON requests (unescaped UTF-8) whose integer id must come back
_byte_lines = st.binary(max_size=40).map(lambda b: (b.replace(b"\n", b""), None))
_requests = st.builds(
    lambda rid, task, text: (
        json.dumps({"id": rid, "task": task, "text": text}, ensure_ascii=False).encode("utf-8"),
        rid,
    ),
    st.integers(), st.sampled_from(["T00", "T02", "TXX"]), st.text(max_size=30),
)


@settings(max_examples=40, deadline=None)
@given(lines=st.lists(st.one_of(_byte_lines, _requests), max_size=6))
@example(lines=[(b"\xff\xfe", None)])
@example(lines=[(b"9" * 5000, None), (b'{"id": 2, "task": "T00", "text": "x"}', 2)])
@example(lines=[(b"[" * 100_000, None)])
def test_wire_protocol_one_answer_per_nonblank_line(workdir, manifest, lines):
    data = b"".join(raw + b"\n" for raw, _ in lines)
    answered = [rid for raw, rid in lines if raw.decode("utf-8", "replace").strip()]
    returned = []

    def counting_serve(*args):
        returned.append(orchestrator.serve(*args))
        return returned[-1]

    out = io.StringIO()
    with mock.patch.object(sys, "stdin", io.TextIOWrapper(io.BytesIO(data))), \
            mock.patch.object(cli, "serve", counting_serve), redirect_stdout(out):
        assert main(["serve", "--backbone", str(workdir / "backbone.bin"), "--manifest", str(manifest)]) == 0
    docs = [json.loads(line) for line in out.getvalue().splitlines()]
    assert returned == [len(answered)] and len(docs) == len(answered)
    for doc, rid in zip(docs, answered):
        if rid is not None:
            assert doc["id"] == rid
