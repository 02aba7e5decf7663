"""Per-layer metrics from the span files that `tracer.Recorder.dump` writes.

Self time is a span's duration minus the durations of its child spans; the
spans of one thread nest, so the children never overlap. A request is one
`orchestrator.handle` span and everything under it; the client's timings of
the same requests are matched to the server's spans by order.
"""

from __future__ import annotations

import json

import numpy as np


def pct(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else float("nan")


class Span:
    __slots__ = ("name", "dur", "start", "req", "value", "children")

    def __init__(self, rec):
        self.name, start, end, _, self.req, self.value = rec
        self.start = start
        self.dur = (end - start) / 1e9
        self.children: list[Span] = []

    def kids(self, name: str) -> list["Span"]:
        return [c for c in self.children if c.name == name]

    @property
    def self_s(self) -> float:
        return self.dur - sum(c.dur for c in self.children)


class Trace:
    def __init__(self, path: str):
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        self.meta = doc["meta"]
        self.requests = {int(k): v for k, v in doc["requests"].items()}
        self.spans: list[Span] = []
        for recs in doc["threads"]:
            spans = [Span(r) for r in recs]
            for rec, span in zip(recs, spans):
                if rec[3] >= 0:
                    spans[rec[3]].children.append(span)
            self.spans += spans
        self.spans.sort(key=lambda s: s.start)

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]


EXACT_PREFIX = 2000  # counts come from this many timed requests, so they repeat exactly for a seed


def serve_metrics(trace: Trace, first: int, latency_s: list) -> dict:
    """Layer numbers for the requests handled from position `first` on, in order.

    `latency_s` is the client's time for each of those requests, from the
    send until its answer was read.
    """
    handles = trace.named("orchestrator.handle")
    timed = handles[first: first + len(latency_s)]
    handle_s = [h.dur for h in timed]
    counted = timed[:EXACT_PREFIX]

    encode, tokenize, predict, registry = [], [], [], []
    for h in timed:
        for sc in h.kids("orchestrator.score"):
            registry.append(sc.self_s)
            for c in sc.children:
                if c.name == "backbone.encode":
                    encode.append(c.dur)
                elif c.name == "backbone.tokenize":
                    tokenize.append(c.dur)
                elif c.name == "heads.predict":
                    predict.append(c.dur)
    tokens = [c.value for h in counted for sc in h.kids("orchestrator.score") for c in sc.kids("backbone.tokenize")]

    def cumulative(hs):
        # Registry.stats as read after the last scored request among hs
        vals = [sc.value for h in hs for sc in h.kids("orchestrator.score")]
        return vals[-1] if vals else [0, 0, 0, 0]

    hits, misses, loads, evictions = (
        b - a for a, b in zip(cumulative(handles[:first]), cumulative(handles[: first + len(counted)]))
    )
    scored = max(1, hits + misses)
    counts = [trace.requests.get(h.req, {}) for h in counted]
    # client time minus server time: the wait in the server's input plus the trip both ways
    waited = [c - s for c, s in zip(latency_s, handle_s)]
    return {
        "numerics.matmul_per_req": float(np.mean([c.get("matmul", 0) for c in counts])),
        "numerics.ops_per_req": float(np.mean([c.get("op", 0) for c in counts])),
        "numerics.matrix_per_req": float(np.mean([c.get("matrix", 0) for c in counts])),
        "backbone.encode_us_p50": pct(encode, 50) * 1e6,
        "backbone.tokenize_us_p50": pct(tokenize, 50) * 1e6,
        "backbone.tokens_per_req_mean": float(np.mean(tokens)),
        "backbone.load_ms": trace.named("backbone.load")[0].dur * 1e3,
        "heads.predict_us_p50": pct(predict, 50) * 1e6,
        "adapters.parse_us_p50": pct([s.dur for s in trace.named("adapters.parse")], 50) * 1e6,
        "orchestrator.handle_us_p50": pct(handle_s, 50) * 1e6,
        "orchestrator.parse_respond_us_p50": pct([h.self_s for h in timed], 50) * 1e6,
        "orchestrator.registry_us_p95": pct(registry, 95) * 1e6,
        "orchestrator.load_us_p50": pct([s.dur for s in trace.named("orchestrator.load")], 50) * 1e6,
        "orchestrator.hit_ratio": hits / scored,
        "orchestrator.loads_per_req": loads / scored,
        "orchestrator.evictions_per_req": evictions / scored,
        "orchestrator.queue_wait_ms_p95": pct(waited, 95) * 1e3,
        "orchestrator.transport_us_p50": pct(waited, 50) * 1e6,
        "cli.import_s": trace.meta["import_s"],
    }


def train_metrics(trace: Trace, epochs: int) -> dict:
    """Layer numbers of one training phase; `epochs` counts fine-tune epochs over all tasks."""
    tasks = trace.named("trainer.train_task")
    steps = [c for t in tasks for c in t.kids("trainer.step")]
    mlm_steps = [c for p in trace.named("trainer.pretrain") for c in p.kids("trainer.step")]
    # encodes directly under train_task ran outside any step, with no tape: the validation passes
    eval_s = sum(c.dur for t in tasks for c in t.kids("backbone.encode"))

    def part(ss, name):
        return [sum(c.dur for c in s.kids(name)) for s in ss]

    backward, adam, clip = part(steps, "numerics.backward"), part(steps, "trainer.adam"), part(steps, "trainer.clip")
    step = [s.dur for s in steps]
    forward = [s - b - a - c for s, b, a, c in zip(step, backward, adam, clip)]
    nodes = [c.value for s in steps for c in s.kids("numerics.backward")]
    return {
        "numerics.tape_records_per_step": float(np.mean(nodes)),
        "numerics.backward_ms_p50": pct(backward, 50) * 1e3,
        "numerics.mlm_backward_ms_p50": pct(part(mlm_steps, "numerics.backward"), 50) * 1e3,
        "backbone.mlm_step_ms_p50": pct([s.dur for s in trace.named("backbone.mlm_step")], 50) * 1e3,
        "serialize.save_ms_p50": pct([s.dur for s in trace.named("serialize.save")], 50) * 1e3,
        "trainer.step_ms_p50": pct(step, 50) * 1e3,
        "trainer.forward_ms_p50": pct(forward, 50) * 1e3,
        "trainer.adam_ms_p50": pct(adam, 50) * 1e3,
        "trainer.clip_ms_p50": pct(clip, 50) * 1e3,
        "trainer.eval_ms_per_epoch": eval_s * 1e3 / epochs,
    }
