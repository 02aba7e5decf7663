"""Span recorder that wraps scoremux's public functions from outside the package.

`install()` replaces each traced function or method with a wrapper that
records a span (name, start, end, parent, request id, value) in a per-thread
list, and each numerics op and `Matrix` construction with a counter charged
to the request being handled. Nothing under `src/` changes: the wrappers are
put in place of the originals in every scoremux module namespace that holds
them, so `from .x import f` references are covered too. Spans and counts stay
in memory until `dump()` writes them as one JSON file.

Steps are spans too: a step opens when a `Tape` is entered and closes when the
`Adam.step` that follows returns, so backward, clipping and the update nest
inside it.
"""

from __future__ import annotations

import json
import sys
import threading
import time

_now = time.perf_counter_ns

# numerics functions counted per request (the differentiable op set)
OPS = (
    "matmul", "add", "add_row", "scale", "transpose", "gelu", "softmax", "layer_norm",
    "gather_rows", "slice_cols", "concat_rows", "concat_cols", "square", "sum_all",
    "mean_all", "frobenius_norm", "cross_entropy",
)


class _ThreadState(threading.local):
    def __init__(self):
        self.spans = None
        self.stack = []
        self.req = None
        self.counts = None


class Recorder:
    def __init__(self):
        self._lock = threading.Lock()
        self._threads: list[list] = []
        self._state = _ThreadState()
        self.requests: dict[int, dict] = {}
        self._next_req = 0
        self.meta: dict = {}

    def _local(self) -> _ThreadState:
        st = self._state
        if st.spans is None:
            st.spans = []
            with self._lock:
                self._threads.append(st.spans)
        return st

    def open(self, name: str) -> list:
        st = self._local()
        rec = [name, _now(), 0, st.stack[-1] if st.stack else -1, st.req, None]
        st.stack.append(len(st.spans))
        st.spans.append(rec)
        return rec

    def close(self, rec: list, value=None) -> None:
        rec[2] = _now()
        rec[5] = value
        self._state.stack.pop()

    def span(self, name: str, fn, value_of=None, request: bool = False):
        """Wrap fn so each call records one span; value_of(args, result) fills its value."""

        def wrapper(*args, **kwargs):
            st = self._local()
            if request:
                with self._lock:
                    st.req = self._next_req
                    self._next_req += 1
                st.counts = {}
            rec = self.open(name)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                self.close(rec)
                raise
            finally:
                if request:
                    self.requests[st.req] = st.counts
                    st.req, st.counts = None, None
            self.close(rec, value_of(args, out) if value_of else None)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def counter(self, key: str, fn):
        """Wrap fn so each call inside a request adds one to that request's count."""
        state = self._state

        def wrapper(*args, **kwargs):
            counts = state.counts
            if counts is not None:
                counts[key] = counts.get(key, 0) + 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def dump(self, path: str) -> None:
        with self._lock:
            threads = [list(t) for t in self._threads]
        doc = {
            "threads": threads,
            "requests": {str(k): v for k, v in self.requests.items()},
            "meta": self.meta,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


def _replace(orig, new) -> None:
    """Put `new` wherever a scoremux module binds `orig` by name."""
    for name, mod in list(sys.modules.items()):
        if name == "scoremux" or name.startswith("scoremux."):
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, attr, new)


def install(recorder: Recorder) -> None:
    """Wrap the traced layers; scoremux must already be importable."""
    import scoremux.cli  # noqa: F401  (imports every layer the wrappers reach)
    from scoremux import adapters, backbone, heads, numerics, orchestrator, trainer

    def fn(mod, name, span_name, value_of=None, request=False):
        orig = getattr(mod, name)
        _replace(orig, recorder.span(span_name, orig, value_of, request))

    def method(cls, name, wrapper_factory):
        orig = getattr(cls, name)
        setattr(cls, name, wrapper_factory(orig))

    def score_value(args, result):
        s = args[0].stats  # Registry.stats is cumulative, so a phase's share is a difference
        return [s.hits, s.misses, s.loads, s.evictions]

    # orchestrator
    fn(orchestrator, "handle_request_line", "orchestrator.handle", request=True)
    fn(orchestrator, "score", "orchestrator.score", score_value)
    fn(orchestrator, "load_task_module", "orchestrator.load")
    fn(adapters, "adapter_from_reader", "adapters.parse")
    # backbone
    fn(backbone, "tokenize", "backbone.tokenize", lambda a, r: len(r))
    fn(backbone, "load_backbone", "backbone.load")
    fn(backbone, "mlm_step", "backbone.mlm_step")
    method(backbone.Backbone, "encode", lambda orig: recorder.span("backbone.encode", orig))
    # heads
    fn(heads, "predict", "heads.predict")
    fn(heads, "head_forward", "heads.head_forward")
    # serialize (module writes)
    fn(orchestrator, "save_task_module", "serialize.save")
    # trainer
    fn(trainer, "train_task", "trainer.train_task")
    fn(trainer, "pretrain_backbone", "trainer.pretrain")
    fn(trainer, "clip_gradients", "trainer.clip")

    def tape_enter(orig):
        def wrapper(self):
            out = orig(self)
            recorder.open("trainer.step")
            return out

        return wrapper

    def tape_backward(orig):
        return recorder.span("numerics.backward", orig, lambda a, r: len(a[0]._nodes))

    def adam_step(orig):
        traced = recorder.span("trainer.adam", orig)

        def wrapper(self, grads, lr):
            traced(self, grads, lr)
            st = recorder._local()
            recorder.close(st.spans[st.stack[-1]])

        return wrapper

    method(numerics.Tape, "__enter__", tape_enter)
    method(numerics.Tape, "backward", tape_backward)
    method(trainer.Adam, "step", adam_step)

    # numerics: per-request op and Matrix counts
    for name in OPS:
        orig = getattr(numerics, name)
        wrapped = recorder.counter("op", orig)
        if name == "matmul":
            wrapped = recorder.counter("matmul", wrapped)
        _replace(orig, wrapped)
    method(numerics.Matrix, "__init__", lambda orig: recorder.counter("matrix", orig))
