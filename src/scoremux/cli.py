"""Command-line front end: gen-data, pretrain, finetune, eval, bench, serve, compare.

Precision is chosen once, by `pretrain`; later commands read it from the checkpoint.
Each training option is a config dataclass field, which owns its type and default.
"""

from __future__ import annotations

import argparse
import dataclasses
import io
import json
import os
import sys
import typing

from .adapters import LoraConfig
from .backbone import Backbone, BackboneConfig, load_backbone, save_backbone, tokenize
from .data import load_jsonl, split_dataset
from .errors import ContractError, ScoreMuxError
from .evalkit import evaluate, paired_t_test
from .numerics import P32, P64
from .orchestrator import (
    DEFAULT_CAPACITY,
    Registry,
    StdioTransport,
    TcpTransport,
    load_registry_manifest,
    read_module_task_id,
    save_task_module,
    serve,
)
from .trainer import TrainConfig, pretrain_backbone, train_task
from .workbench import (
    TaskSpec,
    accuracy_gap_comparison,
    default_specs,
    generate_tasks,
    run_benchmark,
)


# config field -> option name, where the two differ
_OPTION_NAMES = {"learning_rate": "lr", "max_epochs": "epochs", "warmup_fraction": "warmup", "n_layers": "layers",
                 "n_heads": "heads"}
_FIT_FIELDS = ("learning_rate", "batch_size", "warmup_fraction", "clip_norm")  # the fields MLM `fit` reads


def _add_options(p: argparse.ArgumentParser, config, *fields: str) -> None:
    """Add an option for each field of `config`, with that field's type and default."""
    for field in fields:
        default = getattr(config, field)
        p.add_argument(
            "--" + _OPTION_NAMES.get(field, field).replace("_", "-"), dest=field, type=type(default),
            default=default, help=f"{type(config).__name__}.{field} (default: %(default)s)",
        )


def _config(cls, args):
    """A `cls` config from the parsed options named after its fields; the other fields keep their defaults."""
    return cls(**{f.name: getattr(args, f.name) for f in dataclasses.fields(cls) if hasattr(args, f.name)})


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scoremux",
        description="Multi-task scoring: one frozen backbone, per-task low-rank modules.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate synthetic task datasets")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--spec", help="JSON file with a list of task specs")
    p.add_argument("--tasks", type=int, default=27)
    p.add_argument("--items", type=int, default=1000)
    p.add_argument("--out", required=True, help="output directory for JSONL files + manifest")

    p = sub.add_parser("pretrain", help="MLM-pretrain and freeze a backbone")
    _add_options(p, BackboneConfig(), "seed")
    p.add_argument("--precision", type=int, choices=(32, 64), default=32, help="float width of the checkpoint")
    p.add_argument("--corpus", help="text file, one document per line (omit to skip MLM)")
    p.add_argument("--out", required=True, help="backbone checkpoint path")
    p.add_argument("--mlm-epochs", type=int, default=1)
    _add_options(p, TrainConfig(), *_FIT_FIELDS)
    _add_options(p, BackboneConfig(), "vocab_size", "d_model", "n_layers", "n_heads", "d_ff", "max_seq_len")

    p = sub.add_parser("finetune", help="train one task module")
    _add_options(p, TrainConfig(), "seed")
    p.add_argument("--backbone", required=True)
    p.add_argument("--data", required=True, help="task JSONL file")
    p.add_argument("--out", required=True, help="task-module output path")
    p.add_argument("--report", help="write the training report here")
    _add_options(p, TrainConfig(), *_FIT_FIELDS, "max_epochs", "patience", "reg_lambda")
    _add_options(p, LoraConfig(), "rank", "alpha")

    p = sub.add_parser("eval", help="evaluate a module on the test split")
    p.add_argument("--seed", type=int, default=0, help="seed of the train/val/test split")
    p.add_argument("--backbone", required=True)
    p.add_argument("--module", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", help="eval-report JSON path (default: stdout)")

    p = sub.add_parser("bench", help="memory/latency benchmark")
    _add_options(p, TrainConfig(), "seed")  # of the --accuracy-baselines training
    p.add_argument("--backbone", required=True)
    p.add_argument("--modules", required=True, help="directory of .mod files")
    p.add_argument("--out", help="bench-report JSON path (default: stdout)")
    p.add_argument("--capacity", type=int, default=DEFAULT_CAPACITY)
    p.add_argument("--switches", type=int, default=110)
    p.add_argument("--requests", type=int, default=200)
    p.add_argument(
        "--accuracy-baselines", type=int, default=0, metavar="N",
        help="also train N real full-model baselines and report the QWK gap (needs --data)",
    )
    p.add_argument("--data", help="dataset directory for --accuracy-baselines")

    p = sub.add_parser("serve", help="serve scoring requests")
    p.add_argument("--backbone", required=True)
    p.add_argument("--manifest", required=True, help="JSON map of task_id -> module path")
    p.add_argument("--capacity", type=int, default=DEFAULT_CAPACITY)
    p.add_argument("--tcp", type=int, help="listen on this TCP port instead of stdio")

    p = sub.add_parser("compare", help="paired t-test over two QWK vectors")
    p.add_argument("--a", required=True, help="JSON array file")
    p.add_argument("--b", required=True, help="JSON array file")
    return parser


def cmd_gen_data(args) -> int:
    if args.spec:
        with open(args.spec, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
        types = typing.get_type_hints(TaskSpec)  # field -> type; `type(v) is int` refuses a boolean
        if not isinstance(raw, list) or not all(
            isinstance(entry, dict) and "task_id" in entry and all(type(v) is types.get(k) for k, v in entry.items())
            for entry in raw
        ):
            fields = ", ".join(f"{name} ({kind.__name__})" for name, kind in types.items())
            raise ContractError(f"{args.spec}: not a JSON array of objects with a task_id and only the fields {fields}")
        specs = [TaskSpec(**entry) for entry in raw]
    else:
        specs = default_specs(n_tasks=args.tasks, n_items=args.items, seed=args.seed)
    datasets, manifest = generate_tasks(specs, out_dir=args.out)
    print(f"wrote {len(datasets)} task files + manifest.json to {args.out}")
    return 0


def cmd_pretrain(args) -> int:
    config = _config(BackboneConfig, args)
    bb = Backbone(config, P64 if args.precision == 64 else P32)
    if args.corpus:
        with open(args.corpus, "r", encoding="utf-8") as fh:
            sequences = [tokenize(line.strip(), config) for line in fh if line.strip()]
        losses = pretrain_backbone(bb, sequences, _config(TrainConfig, args), epochs=args.mlm_epochs)
        print(f"mlm steps={len(losses)} first_loss={losses[0]:.4f} last_loss={losses[-1]:.4f}")
    bb.freeze()
    save_backbone(bb, args.out)
    print(f"frozen backbone -> {args.out} (fingerprint {bb.frozen_fingerprint[:12]}...)")
    return 0


def cmd_finetune(args) -> int:
    bb = load_backbone(args.backbone)
    dataset = load_jsonl(args.data)
    module, report = train_task(bb, dataset, _config(TrainConfig, args), _config(LoraConfig, args))
    save_task_module(module, args.out)
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            fh.write(report.to_text())
    best = report.epochs[report.best_epoch - 1]
    print(
        f"{module.task_id}: stopped_epoch={report.stopped_epoch} best_epoch={report.best_epoch} "
        f"val_loss={best.val_loss:.4f} val_qwk={best.val_qwk:.4f} -> {args.out}"
    )
    return 0


def cmd_eval(args) -> int:
    bb = load_backbone(args.backbone)
    dataset = load_jsonl(args.data)
    split_dataset(dataset, args.seed)
    task_id = read_module_task_id(args.module)
    registry = Registry(capacity=1)
    registry.register(task_id, args.module)
    report = evaluate(registry, bb, task_id, dataset.splits.test)
    text = report.to_json()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        print(f"{report.task_id}: qwk={report.qwk:.4f} accuracy={report.accuracy:.4f} -> {args.out}")
    else:
        print(text)
    return 0


def cmd_bench(args) -> int:
    bb = load_backbone(args.backbone)
    module_paths = {}
    for name in sorted(os.listdir(args.modules)):
        if name.endswith(".mod"):
            path = os.path.join(args.modules, name)
            module_paths[read_module_task_id(path)] = path
    if not module_paths:
        print("bench: no .mod files found", file=sys.stderr)
        return 1
    task_ids = sorted(module_paths)
    workload = [
        (task_ids[i % len(task_ids)], f"synthetische antwort nummer {i}") for i in range(args.requests)
    ]
    report = run_benchmark(
        bb,
        module_paths,
        backbone_checkpoint=args.backbone,
        workload=workload,
        capacity=args.capacity,
        switches=args.switches,
    )
    if args.accuracy_baselines > 0:
        if not args.data:
            print("bench: --accuracy-baselines requires --data", file=sys.stderr)
            return 1
        datasets = {
            tid: load_jsonl(os.path.join(args.data, f"{tid}.jsonl")) for tid in task_ids
        }
        report.accuracy_gap = accuracy_gap_comparison(
            bb, module_paths, datasets, args.accuracy_baselines,
            TrainConfig(learning_rate=5e-3, seed=args.seed),
        )
    text = report.to_json()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        print(
            f"memory_reduction={report.memory_reduction_fraction:.3f} "
            f"latency_reduction={report.latency_reduction_fraction:.3f} -> {args.out}"
        )
    else:
        print(text)
    return 0


def cmd_serve(args) -> int:
    bb = load_backbone(args.backbone)
    registry = load_registry_manifest(args.manifest, capacity=args.capacity)
    if args.tcp is not None:
        transport = TcpTransport(port=args.tcp)
        print(f"listening on tcp {transport.host}:{transport.port}", file=sys.stderr)
    else:
        # decode as TcpTransport does: UTF-8, bad bytes to U+FFFD, lines end only at \n
        stdin = io.TextIOWrapper(sys.stdin.buffer, encoding="utf-8", errors="replace", newline="\n")
        transport = StdioTransport(stdin, sys.stdout)
    serve(registry, bb, transport)
    return 0


def cmd_compare(args) -> int:
    vectors = []
    for path in (args.a, args.b):
        with open(path, "r", encoding="utf-8") as fh:
            vec = json.load(fh)
        # finite numbers only: no booleans, NaN, Infinity or values beyond the float range
        if not isinstance(vec, list) or not all(type(x) in (int, float) and abs(x) <= sys.float_info.max for x in vec):
            print(f"compare: {path} must hold a JSON array of finite numbers", file=sys.stderr)
            return 1
        vectors.append([float(x) for x in vec])
    t, p = paired_t_test(vectors[0], vectors[1])
    t_out = t if abs(t) != float("inf") else ("inf" if t > 0 else "-inf")
    print(json.dumps({"t": t_out, "p": p, "n": len(vectors[0]), "significant_at_0.05": p < 0.05}))
    return 0


_COMMANDS = {
    "gen-data": cmd_gen_data,
    "pretrain": cmd_pretrain,
    "finetune": cmd_finetune,
    "eval": cmd_eval,
    "bench": cmd_bench,
    "serve": cmd_serve,
    "compare": cmd_compare,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ScoreMuxError, OSError, json.JSONDecodeError) as exc:
        print(f"scoremux {args.command}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
