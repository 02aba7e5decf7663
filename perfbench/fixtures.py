"""Serving fixtures: one frozen backbone plus 27 task modules, cached per program version.

The modules are made by the program's own `train_task`, on a slice of the
train split of each task's generated data, so that the test answers the serve
workloads send are unseen and their gold scores mean something. The cache key
hashes every source file of the package and the fixture settings, so a change
to the program rebuilds the fixtures. The workload seed never reaches the
fixtures: it only picks the requests.
"""

from __future__ import annotations

import hashlib
import os
import shutil

import streams

FIXTURE_SEED = 7
FIXTURE_ITEMS = 400  # of each task's 800-item train split
FIXTURE_LR = 1e-2
FIXTURE_EPOCHS = 2


def _source_key(src_dir: str) -> str:
    settings = f"seed={FIXTURE_SEED} items={FIXTURE_ITEMS} lr={FIXTURE_LR} epochs={FIXTURE_EPOCHS}"
    h = hashlib.sha256(settings.encode())
    pkg = os.path.join(src_dir, "scoremux")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def ensure(cache_root: str, src_dir: str) -> str:
    """Directory holding backbone.bin and <task>.mod for all 27 tasks; built once."""
    final = os.path.join(cache_root, "fixtures-" + _source_key(src_dir))
    if os.path.isdir(final):
        return final
    from scoremux.backbone import Backbone, BackboneConfig, save_backbone
    from scoremux.data import TaskDataset
    from scoremux.orchestrator import save_task_module
    from scoremux.trainer import TrainConfig, train_task

    tmp = final + f".tmp{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    backbone = Backbone(BackboneConfig(seed=FIXTURE_SEED)).freeze()
    save_backbone(backbone, os.path.join(tmp, "backbone.bin"))
    config = TrainConfig(
        learning_rate=FIXTURE_LR, max_epochs=FIXTURE_EPOCHS, patience=FIXTURE_EPOCHS, seed=FIXTURE_SEED
    )
    for tid, ds in streams.datasets(streams.task_ids(), FIXTURE_SEED).items():
        subset = TaskDataset(tid, ds.num_classes, list(ds.splits.train[:FIXTURE_ITEMS]))
        module, _ = train_task(backbone, subset, config)
        save_task_module(module, os.path.join(tmp, f"{tid}.mod"))
    try:
        os.replace(tmp, final)
    except OSError:  # another run finished the same fixtures first
        if not os.path.isdir(final):
            raise
        shutil.rmtree(tmp, ignore_errors=True)
    return final
