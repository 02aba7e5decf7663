"""Acceptance gate: one test per criterion, each printing PASS/FAIL.

Run with `pytest tests/test_acceptance.py -v -s`. The 27-task fine-tuning
campaign is built once (session fixture) and shared by the fingerprint,
learning-sanity, and efficiency criteria.
"""

from __future__ import annotations

import io
import itertools
import json
import time
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from scoremux.adapters import effective_weights, load_adapter, merge, new_adapter, save_adapter
from scoremux.backbone import Backbone, BackboneConfig, CLS_ID, TokenSeq, load_backbone, save_backbone, tokenize
from scoremux.errors import ChecksumError
from scoremux.evalkit import qwk
from scoremux.heads import head_forward, new_head, predict
from scoremux.numerics import Matrix, P32, P64, Rng, Tape, concat_rows, cross_entropy
from scoremux.orchestrator import (
    Registry,
    StdioTransport,
    TaskModule,
    load_task_module,
    save_task_module,
    serve,
)
from scoremux.trainer import (
    TrainConfig,
    adapter_head_slots,
    total_loss,
    train_task,
)
from scoremux.workbench import default_specs, generate_task, run_benchmark

from conftest import fd_grad, straight_line_encode

CAMPAIGN_LR = 5e-3  # desk-scale rate: 125 Adam steps must train from random features


def criterion(number: int, ok: bool, detail: str) -> None:
    print(f"\n[criterion {number:02d}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {number} failed: {detail}"


def randomize_b(adapter, seed, std=0.05):
    rng = Rng(seed)
    for i, p in enumerate(adapter.targets):
        p.b = rng.split(f"b{i}").normal_matrix(p.rank, p.k, std=std, precision=p.b.precision)
    return adapter


@pytest.fixture(scope="session")
def campaign(tmp_path_factory):
    """27 synthetic tasks, one frozen backbone, one trained module per task."""
    t0 = time.perf_counter()
    root = tmp_path_factory.mktemp("campaign")
    backbone = Backbone(BackboneConfig(seed=2025)).freeze()
    checkpoint = root / "backbone.bin"
    save_backbone(backbone, str(checkpoint))
    fingerprint_before = backbone.frozen_fingerprint

    specs = default_specs(n_tasks=27, n_items=1000, seed=7)
    module_paths: dict[str, str] = {}
    test_qwks: dict[str, float] = {}
    difficulties = {s.task_id: s.difficulty for s in specs}
    for spec in specs:
        dataset = generate_task(spec)
        module, _ = train_task(
            backbone, dataset, TrainConfig(learning_rate=CAMPAIGN_LR, max_epochs=5, seed=13)
        )
        path = root / f"{spec.task_id}.mod"
        save_task_module(module, str(path))
        module_paths[spec.task_id] = str(path)
        golds, preds = [], []
        weights = effective_weights(backbone, module.adapter)[0]
        for item in dataset.splits.test:
            label, _ = predict(module.head, backbone.encode(tokenize(item.text, backbone.config), weights))
            golds.append(item.score)
            preds.append(label)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            test_qwks[spec.task_id] = qwk(golds, preds, spec.num_classes)
    return SimpleNamespace(
        backbone=backbone,
        checkpoint=str(checkpoint),
        fingerprint_before=fingerprint_before,
        module_paths=module_paths,
        test_qwks=test_qwks,
        difficulties=difficulties,
        elapsed=time.perf_counter() - t0,
    )


def test_criterion_1_merged_unmerged_equivalence():
    # the effective-weight encode and merge both run x @ (W + s A B); the oracle is the unmerged per-row
    # x @ W + s (x @ A) @ B
    results = {}
    for precision, tol in ((P32, 1e-5), (P64, 1e-10)):
        backbone = Backbone(BackboneConfig(seed=11), precision).freeze()
        head = new_head("t", 4, backbone.config.d_model, Rng(1), precision)
        w_head, b_head = head.weight.data.astype(np.float64), head.bias.data.astype(np.float64)
        worst = 0.0
        for trial in range(100):
            adapter = randomize_b(
                new_adapter("t", backbone.config, rng=Rng(trial), precision=precision), 500 + trial
            )
            gen = np.random.default_rng(trial)
            ids = tuple([CLS_ID] + list(gen.integers(4, backbone.config.vocab_size, size=12)))
            tokens = TokenSeq(ids)
            z_oracle = straight_line_encode(backbone, ids, adapter) @ w_head.T + b_head
            z_adapted = head_forward(head, backbone.encode(tokens, effective_weights(backbone, adapter)[0])).data
            z_merged = head_forward(head, merge(backbone, adapter).encode(tokens)).data
            worst = max(worst, float(np.abs(z_adapted - z_oracle).max()), float(np.abs(z_merged - z_oracle).max()))
        results[precision.name] = (worst, worst <= tol)
    ok = all(flag for _, flag in results.values())
    criterion(
        1, ok,
        "effective-weight and merge logits vs the unmerged per-row oracle over 100 random adapters each: "
        f"P32 max diff {results['P32'][0]:.2e} (tol 1e-5), P64 max diff {results['P64'][0]:.2e} (tol 1e-10)",
    )


def test_criterion_2_zero_init_neutrality():
    backbone = Backbone(BackboneConfig(seed=3)).freeze()
    exact = True
    for seed in range(10):
        adapter = new_adapter("t", backbone.config, rng=Rng(seed))
        head = new_head("t", 3, backbone.config.d_model, Rng(seed))
        text = f"eine antwort nummer {seed} mit mehreren begriffen"
        tokens = tokenize(text, backbone.config)
        h_adapted = backbone.encode(tokens, effective_weights(backbone, adapter)[0])
        h_bare = backbone.encode(tokens)
        l1, p1 = predict(head, h_adapted)
        l2, p2 = predict(head, h_bare)
        exact &= bool(np.array_equal(h_adapted.data, h_bare.data)) and l1 == l2 and np.array_equal(p1, p2)
    criterion(2, exact, "fresh-adapter scoring equals bare backbone + head scoring exactly (10 seeds)")


def test_criterion_3_frozen_backbone_bit_identity(campaign):
    after = campaign.backbone.fingerprint()
    ok = after == campaign.fingerprint_before == campaign.backbone.frozen_fingerprint
    criterion(3, ok, f"backbone fingerprint unchanged across 27-task campaign ({after[:16]}...)")


def test_criterion_4_gradient_correctness():
    failures = 0
    worst = 0.0
    for seed in range(50):
        gen = np.random.default_rng(seed)
        cfg = BackboneConfig(
            vocab_size=30 + int(gen.integers(0, 20)),
            d_model=8,
            n_layers=int(gen.integers(1, 3)),
            n_heads=int(gen.choice([1, 2, 4])),
            d_ff=int(gen.integers(8, 24)),
            max_seq_len=8,
            seed=seed,
        )
        backbone = Backbone(cfg, P64).freeze()
        num_classes = int(gen.integers(2, 7))
        adapter = randomize_b(
            new_adapter("t", cfg, r=int(gen.integers(1, 4)), alpha=4.0, rng=Rng(seed), precision=P64),
            900 + seed, std=0.1,
        )
        head = new_head("t", num_classes, cfg.d_model, Rng(seed + 1), P64)
        seqs = [
            TokenSeq(tuple([CLS_ID] + list(gen.integers(4, cfg.vocab_size, size=int(gen.integers(2, 6))))))
            for _ in range(2)
        ]
        labels = [int(gen.integers(0, num_classes)) for _ in seqs]
        slots = adapter_head_slots(adapter, head)
        mats = [s.get() for s in slots]

        def f(ms, slots=slots, backbone=backbone, adapter=adapter, head=head, seqs=seqs, labels=labels):
            for slot, m in zip(slots, ms):
                slot.set(m)
            weights, deltas = effective_weights(backbone, adapter)
            hiddens = concat_rows([backbone.encode(t, weights) for t in seqs])
            ce = cross_entropy(head_forward(head, hiddens), labels)
            return total_loss(ce, deltas, reg_lambda=0.05)

        with Tape() as tape:
            for m in mats:
                tape.watch(m)
            loss = f(mats)
        grads = tape.backward(loss)
        for i, m in enumerate(mats):
            ana = grads[m].data
            num = fd_grad(f, mats, i)
            denom = np.maximum(np.maximum(np.abs(ana), np.abs(num)), 1e-4)
            err = float((np.abs(ana - num) / denom).max())
            worst = max(worst, err)
            if err > 1e-4:
                failures += 1
    criterion(
        4, failures == 0,
        f"analytic vs central-difference gradients over 50 random configs: worst rel err {worst:.2e} (tol 1e-4)",
    )


def test_criterion_5_qwk_oracle_equivalence():
    def brute_force(golds, preds, c):
        n = len(golds)
        observed = [[0] * c for _ in range(c)]
        for g, p in zip(golds, preds):
            observed[g][p] += 1
        hg = [sum(1 for g in golds if g == k) for k in range(c)]
        hp = [sum(1 for p in preds if p == k) for k in range(c)]
        num = den = 0.0
        for i in range(c):
            for j in range(c):
                w = (i - j) ** 2 / (c - 1) ** 2
                num += w * observed[i][j]
                den += w * hg[i] * hp[j] / n
        return 1.0 if den == 0.0 else 1.0 - num / den

    checked = 0
    worst = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for c in (2, 3):
            for n in range(1, 6):
                for golds in itertools.product(range(c), repeat=n):
                    for preds in itertools.product(range(c), repeat=n):
                        worst = max(worst, abs(qwk(golds, preds, c) - brute_force(golds, preds, c)))
                        checked += 1
        fixtures_ok = (
            abs(qwk([0, 1, 2], [2, 1, 0], 3) - (-1.0)) < 1e-15
            and abs(qwk([0, 0, 1, 1], [0, 0, 1, 0], 2) - 0.5) < 1e-15
        )
    criterion(
        5, worst <= 1e-12 and fixtures_ok,
        f"QWK vs brute-force oracle on {checked} exhaustive label pairs (C<=3, len<=5): max diff {worst:.2e}; "
        "fixtures -1.0 and 0.5 exact",
    )


def test_criterion_6_learning_sanity(campaign):
    qwks = campaign.test_qwks
    mean_qwk = float(np.mean(list(qwks.values())))
    easy = {tid: q for tid, q in qwks.items() if campaign.difficulties[tid] == "easy"}
    min_easy = min(easy.values())
    ok = mean_qwk >= 0.75 and min_easy >= 0.8 and campaign.elapsed <= 900
    criterion(
        6, ok,
        f"27-task campaign: mean test QWK {mean_qwk:.3f} (>=0.75), min easy QWK {min_easy:.3f} (>=0.8), "
        f"runtime {campaign.elapsed:.0f}s (<=900s)",
    )


def test_criterion_7_efficiency_structure(campaign):
    report = run_benchmark(
        campaign.backbone,
        campaign.module_paths,
        backbone_checkpoint=campaign.checkpoint,
        workload=None,
        switches=110,
        warmup_discard=10,
    )
    full_model_bytes = [
        report.backbone_param_bytes + load_task_module(p).head.param_bytes()
        for p in (campaign.module_paths[tid] for tid in sorted(campaign.module_paths))
    ]
    per_task_ok = all(
        mb <= 0.05 * fb for mb, fb in zip(report.module_bytes, full_model_bytes)
    )
    total_ok = report.framework_total_bytes <= 0.15 * report.baseline_total_bytes
    ratio = report.framework_switch_us["median_us"] / max(1, report.baseline_switch_us["median_us"])
    latency_ok = report.framework_switch_us["median_us"] < report.baseline_switch_us["median_us"]
    criterion(
        7, per_task_ok and total_ok and latency_ok,
        f"module bytes <=5% of full model (max {max(m/f for m, f in zip(report.module_bytes, full_model_bytes)):.3f}); "
        f"framework total {report.framework_total_bytes/report.baseline_total_bytes:.3f} of baseline (<=0.15); "
        f"median switch ratio framework/baseline {ratio:.3f} over 100 switches",
    )


def test_criterion_8_lru_reference_equivalence(tmp_path):
    cfg = BackboneConfig(vocab_size=50, d_model=8, n_layers=1, n_heads=2, d_ff=16, max_seq_len=8, seed=0)
    backbone = Backbone(cfg).freeze()
    paths = {}
    for i in range(27):
        tid = f"T{i:02d}"
        module = TaskModule(
            adapter=new_adapter(tid, cfg, r=2, rng=Rng(i)),
            head=new_head(tid, 2, cfg.d_model, Rng(i)),
            backbone_fingerprint=backbone.frozen_fingerprint,
        )
        path = tmp_path / f"{tid}.mod"
        save_task_module(module, str(path))
        paths[tid] = str(path)

    def reference(accesses, capacity):
        cache = []
        for a in accesses:
            if a in cache:
                cache.remove(a)
            elif len(cache) == capacity:
                cache.pop(0)
            cache.append(a)
        return cache

    gen = np.random.default_rng(77)
    total = 0
    ok = True
    for capacity in range(1, 9):
        registry = Registry(capacity=capacity)
        for tid, p in paths.items():
            registry.register(tid, p)
        accesses = [f"T{int(gen.integers(0, 27)):02d}" for _ in range(1250)]
        for tid in accesses:
            registry.ensure_loaded(tid, backbone)
        total += len(accesses)
        ok &= registry.loaded_ids() == reference(accesses, capacity)
    criterion(8, ok and total == 10_000, f"loaded set == reference LRU over {total} accesses, capacities 1-8, 27 tasks")


def test_criterion_9_serialization_round_trips(tmp_path):
    cfg = BackboneConfig(seed=8)
    backbone = Backbone(cfg).freeze()
    adapter = randomize_b(new_adapter("T00", cfg, rng=Rng(2)), 3)
    head = new_head("T00", 4, cfg.d_model, Rng(2))
    module = TaskModule(adapter, head, backbone.frozen_fingerprint)

    checks = []
    # adapter file
    p1, p2 = tmp_path / "a1", tmp_path / "a2"
    save_adapter(adapter, str(p1))
    save_adapter(load_adapter(str(p1)), str(p2))
    checks.append(p1.read_bytes() == p2.read_bytes())
    # task-module file
    m1, m2 = tmp_path / "m1", tmp_path / "m2"
    save_task_module(module, str(m1))
    save_task_module(load_task_module(str(m1)), str(m2))
    checks.append(m1.read_bytes() == m2.read_bytes())
    # backbone checkpoint
    b1, b2 = tmp_path / "b1", tmp_path / "b2"
    save_backbone(backbone, str(b1))
    save_backbone(load_backbone(str(b1)), str(b2))
    checks.append(b1.read_bytes() == b2.read_bytes())
    # single-byte corruption detected via CRC on all three formats
    corrupt_ok = []
    for path, loader in ((p1, load_adapter), (m1, load_task_module), (b1, load_backbone)):
        raw = bytearray(path.read_bytes())
        raw[len(raw) // 2] ^= 0x40
        bad = tmp_path / (path.name + ".bad")
        bad.write_bytes(bytes(raw))
        try:
            loader(str(bad))
            corrupt_ok.append(False)
        except ChecksumError:
            corrupt_ok.append(True)
    criterion(
        9, all(checks) and all(corrupt_ok),
        "adapter/module/backbone files round-trip byte-identically; single-byte corruption raises CRC errors",
    )


def test_criterion_10_regularization():
    # exactness of the lambda = 0 reduction
    backbone = Backbone(BackboneConfig(seed=31)).freeze()
    ce = Matrix(np.asarray([[0.73]], dtype=np.float32))
    adapter = randomize_b(new_adapter("t", backbone.config, rng=Rng(4)), 5)
    exact = total_loss(ce, effective_weights(backbone, adapter)[1], 0.0) is ce

    from scoremux.workbench import TaskSpec

    norms = {}
    for lam in (0.0, 1.0):
        dataset = generate_task(TaskSpec("TReg", num_classes=3, n_items=200, difficulty="easy", seed=5))
        _, report = train_task(
            backbone, dataset,
            TrainConfig(learning_rate=CAMPAIGN_LR, max_epochs=3, seed=17, reg_lambda=lam),
        )
        norms[lam] = sum(norm**2 for norm in report.final_delta_norms.values())
    ok = exact and norms[1.0] <= norms[0.0]
    criterion(
        10, ok,
        f"lambda=0 total loss is CE exactly; delta norm^2 with lambda=1.0 ({norms[1.0]:.4f}) "
        f"<= lambda=0 ({norms[0.0]:.4f})",
    )


def test_criterion_11_serve_protocol(campaign):
    registry = Registry(capacity=4)
    for tid, path in campaign.module_paths.items():
        registry.register(tid, path)
    gen = np.random.default_rng(3)
    tasks = sorted(campaign.module_paths)
    lines = []
    malformed = 0
    for i in range(1000):
        lines.append(json.dumps({"id": i, "task": tasks[int(gen.integers(0, 27))], "text": f"antwort {i % 31}"}))
        if i % 200 == 199:
            lines.append("this is not json {{{")
            malformed += 1
    stdout = io.StringIO()
    served = serve(registry, campaign.backbone, StdioTransport(io.StringIO("\n".join(lines) + "\n"), stdout))
    responses = [json.loads(l) for l in stdout.getvalue().splitlines()]
    valid = [r for r in responses if "error" not in r]
    errors = [r for r in responses if "error" in r]
    ids_ok = sorted(r["id"] for r in valid) == list(range(1000))
    stats_ok = registry.stats.hits + registry.stats.misses == 1000
    ok = served == 1000 + malformed and ids_ok and stats_ok and len(errors) == malformed
    criterion(
        11, ok,
        f"1000-request replay: {len(valid)} responses with matching ids, hits+misses=="
        f"{registry.stats.hits + registry.stats.misses}, {malformed} malformed lines survived",
    )
