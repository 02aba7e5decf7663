"""Training worker: MLM-pretrain a backbone, freeze it, fine-tune and save task modules.

This is what `scoremux pretrain` and `scoremux finetune` do, run as one
process so the benchmark can time each optimizer step. The only hook on the
program is a timestamp taken when `Adam.step` returns; step time is the gap
between two consecutive steps of one epoch. The line `first-step` is printed
when the first step returns, and one JSON result line when the phase ends.

    python3 perfbench/worker.py --seed 1 --tasks T00,T01,T02 --epochs 2 --mlm-steps 20 --out DIR
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time

import streams
import tracer


def vmhwm_mb(pid: int | str = "self") -> float:
    """Peak resident set size of a process, from /proc/<pid>/status."""
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM not reported")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--tasks", required=True, help="comma-separated task ids")
    p.add_argument("--epochs", type=int, required=True)
    p.add_argument("--mlm-steps", type=int, required=True)
    p.add_argument("--out", required=True, help="directory for backbone.bin and <task>.mod")
    p.add_argument("--trace", help="record spans and write them to this file")
    p.add_argument("--setup-only", action="store_true", help="exit after the first optimizer step")
    args = p.parse_args(argv)

    recorder = None
    if args.trace:
        recorder = tracer.Recorder()
        tracer.install(recorder)
    from scoremux import backbone as bbmod
    from scoremux import orchestrator, trainer

    stamps: list[float] = []
    adam_step = trainer.Adam.step

    def timed_step(self, grads, lr):
        adam_step(self, grads, lr)
        stamps.append(time.perf_counter())
        if len(stamps) == 1:
            sys.stdout.write("first-step\n")
            sys.stdout.flush()
            if args.setup_only:
                raise SystemExit(0)

    trainer.Adam.step = timed_step

    seed = args.seed
    tids = args.tasks.split(",")
    data = streams.datasets(tids, seed)
    bcfg = bbmod.BackboneConfig(seed=seed)
    texts = [it.text for ds in data.values() for it in ds.splits.train]
    batch = trainer.TrainConfig().batch_size
    corpus = [bbmod.tokenize(t, bcfg) for t in texts[: args.mlm_steps * batch]]
    model = bbmod.Backbone(bcfg)
    # the MLM learning rate is the `scoremux pretrain` default; 1e-2 makes two fine-tune epochs
    # reach a validation QWK that varies little from seed to seed
    mlm_config = trainer.TrainConfig(seed=seed)
    ft_config = trainer.TrainConfig(learning_rate=1e-2, max_epochs=args.epochs, patience=args.epochs, seed=seed)

    t0 = time.perf_counter()
    losses = trainer.pretrain_backbone(model, corpus, mlm_config, epochs=1)
    n_mlm = len(stamps)
    model.freeze()
    bbmod.save_backbone(model, os.path.join(args.out, "backbone.bin"))
    qwks, best_qwks, finetune_gaps = [], [], []
    examples = len(corpus)
    for tid in tids:
        first = len(stamps)
        module, report = trainer.train_task(model, data[tid], ft_config)
        orchestrator.save_task_module(module, os.path.join(args.out, f"{tid}.mod"))
        qwks.append(report.epochs[-1].val_qwk)
        best_qwks.append(report.epochs[report.best_epoch - 1].val_qwk)
        n_train = len(data[tid].splits.train)
        examples += n_train * len(report.epochs)
        per_epoch = math.ceil(n_train / ft_config.batch_size)
        steps = stamps[first:]
        finetune_gaps += [(steps[k] - steps[k - 1]) * 1e3 for k in range(1, len(steps)) if k % per_epoch]
    wall = time.perf_counter() - t0

    mlm = stamps[:n_mlm]
    result = {
        "pretrain_step_ms": [(b - a) * 1e3 for a, b in zip(mlm, mlm[1:])],
        "finetune_step_ms": finetune_gaps,
        "train_wall_s": wall,
        "val_qwk": qwks,
        "best_val_qwk": best_qwks,  # the saved module is the best epoch's
        "examples": examples,
        "losses_finite": all(math.isfinite(x) for x in losses),
        "peak_rss_mb": vmhwm_mb(),
    }
    if recorder is not None:
        recorder.dump(args.trace)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
