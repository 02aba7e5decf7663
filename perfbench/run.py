"""scoremux benchmark: serving and training, measured end to end and layer by layer.

    python3 perfbench/run.py --workload serve-hot --seed 1 --seconds 30 --trace 0

Run it from the repository root; it writes only under `.bench_build/`. Each
workload has one long phase: serving for `--seconds` against the real
`scoremux serve` process (serve-hot, serve-mix), or a fixed training campaign
in a worker process that calls the trainer functions (train). The end-to-end
metrics are defined for both kinds of phase, so every workload reports every
one of them (see perfbench/README.md). With `--trace 1` the long phase runs
once untraced, as the baseline of the tracing overhead, and then again with
the span recorder installed, followed by a short traced phase of the other
kind, so every layer is seen on every workload. The last line of output is
one JSON object.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
import warnings

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
HERE = os.path.dirname(os.path.abspath(__file__))

if not os.path.isfile(os.path.join(SRC, "scoremux", "cli.py")):
    sys.stderr.write("perfbench: no scoremux source under ./src; run from the repository root\n")
    sys.exit(2)
sys.path.insert(0, SRC)

import numpy as np  # noqa: E402

import fixtures  # noqa: E402
import layers  # noqa: E402
import serve  # noqa: E402
import streams  # noqa: E402
from scoremux.backbone import load_backbone  # noqa: E402
from scoremux.evalkit import qwk  # noqa: E402
from scoremux.orchestrator import Registry, score  # noqa: E402

WORKLOADS = ("serve-hot", "serve-mix", "train")
SETUP_LAUNCHES = 5
HOT_WARMUP_REQUESTS = 200
SHORT_SERVE_REQUESTS = 900
WORKER_TIMEOUT_S = 150
SEGMENT_S = 3.0  # a serve phase is cut into windows this long; its figures are medians over them
QWK_MIN_ANSWERS = 20  # a task's served QWK counts once it has this many distinct scored answers
# (tasks, epochs, MLM steps): the train workload's campaign, and the short traced one of the serve workloads
TRAIN_LONG = (["T00", "T01", "T02"], 2, 20)
TRAIN_SHORT = (["T00"], 1, 4)
SETUP_ID = 10**9


def p(values, q) -> float:
    return float(np.percentile(values, q))


def segment_medians(latency_s: list, done_s: list, passed: list, elapsed: float) -> dict:
    """p50 latency (ms) and passed answers per second, each the median over SEGMENT_S windows.

    The host's speed changes for seconds at a time; a median over windows
    keeps one slow stretch from moving the figure of the whole run.
    """
    n = max(1, round(elapsed / SEGMENT_S))
    span = elapsed / n
    windows = [[] for _ in range(n)]
    for lat, t, ok in zip(latency_s, done_s, passed):
        windows[min(int(t / span), n - 1)].append((lat, ok))
    windows = [w for w in windows if w]
    return {
        "p50_ms": statistics.median(p([lat for lat, _ in w], 50) * 1e3 for w in windows),
        "throughput": statistics.median(sum(ok for _, ok in w) / span for w in windows),
    }


def quiet_qwk(golds, preds, num_classes: int) -> float:
    with warnings.catch_warnings():  # a single-class sample is defined as agreement 1.0
        warnings.simplefilter("ignore", RuntimeWarning)
        return qwk(golds, preds, num_classes)


def mean_qwk(labels: list[tuple[str, str, int, int]], num_classes: dict) -> float:
    """Mean over tasks of QWK(gold, label) on the distinct answers served, weighted by their count."""
    by_task: dict[str, dict] = {}
    for task, text, gold, label in labels:
        by_task.setdefault(task, {})[text] = (gold, label)
    total, weight = 0.0, 0
    for task, pairs in by_task.items():
        if len(pairs) >= QWK_MIN_ANSWERS:
            golds, preds = zip(*pairs.values())
            total += quiet_qwk(golds, preds, num_classes[task]) * len(pairs)
            weight += len(pairs)
    return total / weight if weight else float("nan")


class Run:
    def __init__(self, seed: int, seconds: int):
        self.seed, self.seconds = seed, seconds
        cache = os.path.join(ROOT, ".bench_build", "perfbench")
        self.fixtures = fixtures.ensure(cache, SRC)
        self.dir = os.path.join(cache, "runs", str(os.getpid()))
        shutil.rmtree(self.dir, ignore_errors=True)
        os.makedirs(self.dir)
        self.phases: list[tuple[str, int, int]] = []  # (name, sent, succeeded)
        self.servers: list[serve.Server] = []
        self._seq = itertools.count()

    def start(self, *args, **kwargs) -> serve.Server:
        srv = serve.Server(ROOT, *args, self.dir, **kwargs)
        self.servers.append(srv)
        return srv

    def stop(self) -> None:
        """Kill any server a failed phase left running, and wait for it."""
        for srv in self.servers:
            if srv.proc.poll() is None:
                srv.proc.kill()
                srv.proc.wait()
        shutil.rmtree(self.dir, ignore_errors=True)

    def path(self, name: str) -> str:
        return os.path.join(self.dir, f"{next(self._seq)}-{name}")

    def phase(self, name: str, sent: int, succeeded: int) -> None:
        self.phases.append((name, sent, succeeded))

    # -- serving ---------------------------------------------------------------

    def manifest(self, model_dir: str, tids: list[str]) -> tuple[str, str]:
        path = self.path("manifest.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({t: os.path.join(model_dir, f"{t}.mod") for t in tids}, fh)
        return os.path.join(model_dir, "backbone.bin"), path

    def references(self, model_dir: str, pairs) -> dict:
        """The label in-process `score` gives each (task, text), computed once per run."""
        bb = load_backbone(os.path.join(model_dir, "backbone.bin"))
        pairs = sorted(set(pairs))
        tids = sorted({t for t, _ in pairs})
        registry = Registry(capacity=len(tids))
        for t in tids:
            registry.register(t, os.path.join(model_dir, f"{t}.mod"))
        return {(t, x): score(registry, bb, t, x).label for t, x in pairs}

    def serve(self, model_dir: str, data_seed: int, tids: list[str], stream, *, tcp: bool, window: int,
              seconds: float, launches: int = 1, warmup: int = 0, trace_file: str | None = None) -> dict:
        """One serve phase: set up `launches` times, keep the last server, warm up, drive, check."""
        files = self.manifest(model_dir, tids)
        first = next(stream)
        setups, setup_answers = [], []
        for k in range(launches):
            last = k == launches - 1
            srv = self.start(*files, tcp=tcp, trace_file=trace_file if last else None)
            setup_answers.append((first, srv.first_answer(first)))
            setups.append(srv.setup_s)
            if not last:
                srv.close()
        warm = [(r, srv.roundtrip(r)) for r in itertools.islice(stream, warmup)]
        res = serve.drive(srv, stream, seconds, window)
        peak = srv.close()

        sent = setup_answers + warm + res["answers"]
        ref = self.references(model_dir, [(r.task, r.text) for r, _ in sent if r.kind == streams.OK])
        passed = {}
        for name, answers in (("serve-setup", setup_answers), ("warmup", warm), ("serve", res["answers"])):
            passed[name] = [(r, resp) for r, resp in ((r, serve.check(r, raw, ref)) for r, raw in answers) if resp]
            if answers:
                self.phase(name, len(answers), len(passed[name]))
        labels = [(r.task, r.text, r.gold, resp["label"]) for r, resp in passed["serve"] if r.gold is not None]
        classes = {t: ds.num_classes for t, ds in streams.datasets(tids, data_seed).items()}
        ok_ids = {r.rid for r, _ in passed["serve"]}
        ok = [r.rid in ok_ids for r, raw in res["answers"] if raw is not None]
        res.update(segment_medians(res["latency_s"], res["done_s"], ok, res["elapsed_s"]))
        res.update(peak_rss_mb=peak, setups=setups, first=1 + warmup, qwk=mean_qwk(labels, classes))
        return res

    def serve_hot(self, trace_file=None) -> dict:
        tids = streams.HOT_TASKS
        answers = streams.test_answers(tids, fixtures.FIXTURE_SEED)
        res = self.serve(
            self.fixtures, fixtures.FIXTURE_SEED, tids, streams.uniform(answers, self.seed, "hot"),
            tcp=True, window=1, seconds=self.seconds, launches=1 if trace_file else SETUP_LAUNCHES,
            warmup=HOT_WARMUP_REQUESTS, trace_file=trace_file,
        )
        res["served"] = (self.fixtures, tids, answers)
        return res

    def serve_mix(self, trace_file=None) -> dict:
        tids = streams.task_ids()
        answers = streams.test_answers(tids, fixtures.FIXTURE_SEED)
        res = self.serve(
            self.fixtures, fixtures.FIXTURE_SEED, tids, streams.mixed(answers, self.seed),
            tcp=False, window=streams.MIX_WINDOW, seconds=self.seconds,
            launches=1 if trace_file else SETUP_LAUNCHES, trace_file=trace_file,
        )
        res["served"] = (self.fixtures, tids, answers)
        return res

    def serve_trained(self, model_dir: str, tids: list[str], trace_file: str) -> dict:
        """Serve the modules a training phase wrote: closed loop, a fixed number of requests."""
        answers = streams.test_answers(tids, self.seed)
        stream = itertools.islice(streams.uniform(answers, self.seed, "trained"), SHORT_SERVE_REQUESTS + 1)
        res = self.serve(model_dir, self.seed, tids, stream, tcp=True, window=1, seconds=math.inf,
                         trace_file=trace_file)
        res["served"] = (model_dir, tids, answers)
        return res

    def pipelined(self, model_dir: str, tids: list[str], answers: dict) -> int:
        """Answers to 32 requests sent in one write on a fresh TCP connection."""
        reqs = list(itertools.islice(streams.uniform(answers, self.seed, "pipelined"), serve.PIPELINE_REQUESTS))
        first = streams.request(SETUP_ID, reqs[0].task, reqs[0].text)
        srv = self.start(*self.manifest(model_dir, tids), tcp=True)
        try:
            srv.first_answer(first)
            return serve.pipelined_probe(srv, reqs)
        finally:
            srv.close()

    # -- training ----------------------------------------------------------------

    def worker(self, shape, trace_file=None, setup_only=False) -> tuple[float, dict | None, str]:
        """Run one training worker; returns (setup seconds, result, output dir)."""
        tids, epochs, mlm_steps = shape
        out = self.path("train")
        os.makedirs(out)
        cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--seed", str(self.seed),
               "--tasks", ",".join(tids), "--epochs", str(epochs), "--mlm-steps", str(mlm_steps), "--out", out]
        if trace_file:
            cmd += ["--trace", trace_file]
        if setup_only:
            cmd.append("--setup-only")
        env = dict(os.environ, PYTHONPATH=SRC)
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE) as proc:
            watchdog = threading.Timer(WORKER_TIMEOUT_S, proc.kill)  # a hung worker fails the phase
            watchdog.start()
            try:
                marker = proc.stdout.readline()
                setup = time.perf_counter() - t0
                rest = proc.stdout.read()
            except BaseException:
                proc.kill()
                raise
            finally:
                watchdog.cancel()
        if marker.strip() != b"first-step" or proc.returncode != 0:
            raise RuntimeError(f"training worker failed (exit {proc.returncode})")
        result = None if setup_only else json.loads(rest.splitlines()[-1])
        return setup, result, out

    def train(self, shape, trace_file=None, setup_launches: int = 1) -> dict:
        setups = [self.worker(shape, setup_only=True)[0] for _ in range(setup_launches - 1)]
        setup, res, out = self.worker(shape, trace_file)
        res.update(
            setups=setups + [setup], out=out, throughput=res["examples"] / res["train_wall_s"],
            p50_ms=p(res["finetune_step_ms"], 50),
        )
        self.phase("train", len(shape[0]), self.check_trained(out, shape[0], res))
        return res

    def check_trained(self, out: str, tids: list[str], res: dict) -> int:
        """Tasks whose saved module, loaded and scored in-process, reproduces the reported validation QWK."""
        bb = load_backbone(os.path.join(out, "backbone.bin"))
        registry = Registry(capacity=len(tids))
        ok = 0
        for (tid, ds), best in zip(streams.datasets(tids, self.seed).items(), res["best_val_qwk"]):
            registry.register(tid, os.path.join(out, f"{tid}.mod"))
            val = ds.splits.val
            preds = [score(registry, bb, tid, it.text).label for it in val]
            got = quiet_qwk([it.score for it in val], preds, ds.num_classes)
            ok += res["losses_finite"] and abs(got - best) <= 1e-9
        return ok


def end_to_end(workload: str, run: Run) -> dict:
    if workload == "train":
        primary = run.train(TRAIN_LONG, setup_launches=SETUP_LAUNCHES)
        lat_ms, quality = primary["finetune_step_ms"], float(np.mean(primary["val_qwk"]))
        print(f"pretrain_step_ms_p50 = {p(primary['pretrain_step_ms'], 50):.6g} ms")
        print(f"train_wall_s = {primary['train_wall_s']:.6g} s")
    else:
        primary = run.serve_hot() if workload == "serve-hot" else run.serve_mix()
        lat_ms, quality = [x * 1e3 for x in primary["latency_s"]], primary["qwk"]
    # The tail is printed but not gated: on a shared 2-core host its spread from run to run
    # (0.3 to 0.6 of the median on serve-hot) is wider than any bound the result format allows.
    for q in (95, 99):
        print(f"latency_p{q}_ms = {p(lat_ms, q):.6g} ms (n={len(lat_ms)})")
    return {
        "latency_p50_ms": primary["p50_ms"],
        "throughput_per_s": primary["throughput"],
        "setup_s": statistics.median(primary["setups"]),
        "peak_rss_mb": primary["peak_rss_mb"],
        "qwk_mean": quality,
    }


def per_layer(workload: str, run: Run) -> dict:
    srv_trace, tr_trace = run.path("serve.trace"), run.path("train.trace")
    if workload == "train":
        base = run.train(TRAIN_LONG)["p50_ms"]
        tr = run.train(TRAIN_LONG, tr_trace)
        overhead = tr["p50_ms"] / base
        srv = run.serve_trained(tr["out"], TRAIN_LONG[0], srv_trace)
        shape = TRAIN_LONG
    else:
        serve_phase = run.serve_hot if workload == "serve-hot" else run.serve_mix
        base = serve_phase()["p50_ms"]
        srv = serve_phase(srv_trace)
        overhead = srv["p50_ms"] / base
        run.train(TRAIN_SHORT, tr_trace)
        shape = TRAIN_SHORT
    metrics = layers.serve_metrics(layers.Trace(srv_trace), srv["first"], srv["latency_s"])
    metrics.update(layers.train_metrics(layers.Trace(tr_trace), len(shape[0]) * shape[1]))
    metrics["orchestrator.tcp_pipelined_answered"] = run.pipelined(*srv["served"])
    metrics["bench.gen_late_ms_p99"] = p(srv["late_s"], 99) * 1e3
    metrics["bench.trace_overhead_pct"] = (overhead - 1.0) * 100.0
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="scoremux benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    run = Run(args.seed, args.seconds)
    try:
        metrics = (per_layer if args.trace else end_to_end)(args.workload, run)
    finally:
        run.stop()

    attempted = sum(sent for _, sent, _ in run.phases)
    succeeded = sum(ok for _, _, ok in run.phases)
    metrics["success_rate"] = succeeded / attempted
    for name, sent, ok in run.phases:
        print(f"phase {name:11s} sent={sent} succeeded={ok} failed={sent - ok}")
    out = {}
    for name, unit in units.items():
        out[name] = {"value": metrics[name], "unit": unit}
        print(f"{name} = {metrics[name]:.6g} {unit}")
    print(json.dumps({
        "correct": succeeded == attempted,
        "attempted": attempted,
        "failed": attempted - succeeded,
        "metrics": out,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
