"""Dynamic inference orchestration: task-module files, LRU registry, serving.

A TaskModule is the deployable unit for one task: adapter + head in a single
file, loaded on demand. The file is one flat frame (`MTTM`, version 2): the
adapter body as `adapters.adapter_to_writer` writes it (task id first), the
head, the fingerprint of the backbone the module was trained against, and one
CRC32 that `serialize.Reader` checks before any field is parsed. Each fact is
stored once: the task id is the adapter's, the class count is the head's.

The Registry keeps at most `capacity` modules resident, evicting
least-recently-used. One lock serialises its callers: `Registry.acquire`
holds it from admission through the caller's head, so one request scores at a
time and the entry it scores with cannot be evicted under it. It is the one
place a module meets a backbone: it reads the module at the backbone's
precision, refuses one trained against another backbone before it takes a
slot, and keeps the effective weights it derives once
(`adapters.effective_weights`). `score` answers one request; `score_tokens`
scores a whole tokenized split in packed encodes of `SCORE_BATCH` for
validation and evaluation. Both pass each hidden row through `heads.predict`,
so an answer gets the probabilities it is served with. The wire protocol is
newline-delimited UTF-8 JSON over stdio or TCP, at most `MAX_REQUEST_CHARS`
characters a line.
"""

from __future__ import annotations

import json
import math
import socket
import struct
import threading
import time
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator, NamedTuple

import numpy as np

from .adapters import LoraAdapter, adapter_from_reader, adapter_to_writer, effective_weights
from .backbone import Backbone, TokenSeq, tokenize
from .errors import (
    BackboneMismatchError,
    ContractError,
    DuplicateTaskError,
    FileFormatError,
    RegistrationError,
    ScoreMuxError,
    UnknownTaskError,
)
from .heads import ClassificationHead, predict
from .numerics import Matrix, P32, Precision
from .serialize import Reader, Writer

MODULE_MAGIC = b"MTTM"
MODULE_VERSION = 2
DEFAULT_CAPACITY = 4
# characters of one request line before its newline: far above a real answer
# (tokenize keeps max_seq_len tokens), far below what one line would need to exhaust memory
MAX_REQUEST_CHARS = 1 << 20
# answers per packed encode in `score_tokens`; a packed row keeps its single encode's bits
# (except a `[CLS]`-only answer, which alone runs 1-row matmuls), so this sets speed, not results
SCORE_BATCH = 32
# module magic, version and task-id length: the adapter section opens with the task id
_MODULE_HEADER = struct.Struct("<4sHH")


@dataclass
class TaskModule:
    """One task's adapter and head, and the fingerprint of the backbone they were trained against."""

    adapter: LoraAdapter
    head: ClassificationHead
    backbone_fingerprint: str

    @property
    def task_id(self) -> str:
        return self.adapter.task_id

    def param_count(self) -> int:
        return self.adapter.param_count() + self.head.param_count()

    def param_bytes(self) -> int:
        return self.adapter.param_bytes() + self.head.param_bytes()


def module_to_bytes(module: TaskModule) -> bytes:
    """One frame: the adapter body, the head {C u16, W f32, b f32}, the backbone fingerprint, one CRC."""
    w = Writer(MODULE_MAGIC, MODULE_VERSION)
    adapter_to_writer(w, module.adapter)
    head = module.head
    w.u16(head.num_classes)
    w.array(head.weight.data, "<f4")
    w.array(head.bias.data, "<f4")
    w.str16(module.backbone_fingerprint)
    return w.finish()


def save_task_module(module: TaskModule, path: str) -> None:
    with open(path, "wb") as fh:
        fh.write(module_to_bytes(module))


def load_task_module(path: str, precision: Precision = P32) -> TaskModule:
    with open(path, "rb") as fh:
        r = Reader(fh.read(), MODULE_MAGIC, MODULE_VERSION)
    adapter = adapter_from_reader(r, precision)
    num_classes = r.u16()
    d_model = adapter.targets[0].d if adapter.targets else 0
    weight = r.array(num_classes * d_model, "<f4").reshape(num_classes, d_model)
    bias = r.array(num_classes, "<f4").reshape(1, num_classes)
    fingerprint = r.str16()
    r.finish()
    head = ClassificationHead(Matrix(weight.astype(precision.dtype)), Matrix(bias.astype(precision.dtype)))
    return TaskModule(adapter, head, fingerprint)


def read_module_task_id(path: str) -> str:
    """The task id in a module file's header, read without parsing or checksumming the rest."""
    try:
        with open(path, "rb") as fh:
            header = fh.read(_MODULE_HEADER.size)
            if len(header) < _MODULE_HEADER.size:
                raise RegistrationError(f"{path}: not a task-module file")
            magic, version, id_len = _MODULE_HEADER.unpack(header)
            raw_id = fh.read(id_len)
    except OSError as exc:
        raise RegistrationError(f"cannot read {path}: {exc}") from exc
    if magic != MODULE_MAGIC:
        raise RegistrationError(f"{path}: not a task-module file")
    if version != MODULE_VERSION:
        raise RegistrationError(f"{path}: unsupported module version {version} (expected {MODULE_VERSION})")
    if len(raw_id) != id_len:
        raise RegistrationError(f"{path}: truncated task id")
    try:
        return raw_id.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise RegistrationError(f"{path}: task id is not UTF-8") from exc


# -- registry -------------------------------------------------------------------


@dataclass
class RegistryStats:
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    loads: int = 0
    load_time_us: int = 0
    compute_time_us: int = 0


class Resident(NamedTuple):
    """A module the registry admitted, with its effective weights for the backbone it was admitted for."""

    module: TaskModule
    weights: dict[str, Matrix]

    def nbytes(self) -> int:
        return self.module.param_bytes() + sum(w.data.nbytes for w in self.weights.values())


@dataclass(frozen=True)
class ScoreResult:
    task_id: str
    label: int
    probs: tuple[float, ...]
    cache_hit: bool
    latency_us: int
    truncated: bool = False


class Registry:
    """Manifest of task-module files with an LRU-bounded resident set behind one lock.

    The lock is a re-entrant `threading.RLock`: a caller holds it from
    admission through its head (`acquire`), so the thread inside a block may
    read `loaded_ids()` without deadlock, and a reader on another thread waits
    for the request in flight to leave its block.
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY):
        if capacity < 1:
            raise ContractError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.manifest: dict[str, str] = {}
        self.stats = RegistryStats()
        self._loaded: OrderedDict[str, Resident] = OrderedDict()
        self._lock = threading.RLock()

    def register(self, task_id: str, module_path: str) -> None:
        """Add a module file to the manifest if its header names `task_id`; nothing is loaded yet."""
        if task_id in self.manifest:
            raise DuplicateTaskError(f"task {task_id!r} already registered")
        file_task_id = read_module_task_id(module_path)
        if file_task_id != task_id:
            raise RegistrationError(f"{module_path} holds task {file_task_id!r}, not {task_id!r}")
        self.manifest[task_id] = module_path

    def loaded_ids(self) -> list[str]:
        with self._lock:
            return list(self._loaded)

    def resident_module_bytes(self) -> int:
        """Parameter bytes of the resident modules plus their derived effective weights."""
        with self._lock:
            return sum(entry.nbytes() for entry in self._loaded.values())

    @contextmanager
    def acquire(self, task_id: str, backbone: Backbone) -> Iterator[tuple[Resident, bool]]:
        """Yield (resident entry, cache_hit) for the frozen `backbone` under the lock; the one admission point.

        A miss reads the file at `backbone.precision`. A module trained against
        another backbone raises BackboneMismatchError before anything is
        inserted or evicted; a refused read counts only in `loads`. An admitted
        module's effective weights are derived once, here, and charged with the
        read to `load_time_us`; a hit builds nothing. A fingerprint matches a
        backbone of one precision only, so a resident entry is always at the
        width of the backbone that hits it. The time spent in the caller's
        block is charged to `compute_time_us` when it exits.
        """
        if not backbone.frozen:
            raise ContractError("scoring requires a frozen backbone")
        with self._lock:
            if task_id not in self.manifest:
                raise UnknownTaskError(f"unknown task {task_id!r}")
            entry = self._loaded.get(task_id)
            hit = entry is not None
            t0 = time.perf_counter_ns()
            module = entry.module if hit else load_task_module(self.manifest[task_id], backbone.precision)
            if not hit:
                self.stats.loads += 1
            if module.backbone_fingerprint != backbone.frozen_fingerprint:
                raise BackboneMismatchError(f"module {task_id!r} was trained against another backbone")
            if hit:
                self._loaded.move_to_end(task_id)
                self.stats.hits += 1
            else:
                entry = Resident(module, effective_weights(backbone, module.adapter)[0])
                self.stats.load_time_us += (time.perf_counter_ns() - t0) // 1000
                if len(self._loaded) >= self.capacity:
                    self._loaded.popitem(last=False)  # least recent first
                    self.stats.evictions += 1
                self._loaded[task_id] = entry
                self.stats.misses += 1
            t_compute = time.perf_counter_ns()
            try:
                yield entry, hit
            finally:
                self.stats.compute_time_us += (time.perf_counter_ns() - t_compute) // 1000

    def ensure_loaded(self, task_id: str, backbone: Backbone) -> Resident:
        with self.acquire(task_id, backbone) as (entry, _):
            return entry


def score(registry: Registry, backbone: Backbone, task_id: str, text: str) -> ScoreResult:
    """Three-step scoring under the registry lock: tokenize, encode with the module's effective weights, head."""
    t_start = time.perf_counter_ns()
    with registry.acquire(task_id, backbone) as (entry, hit):
        tokens = tokenize(text, backbone.config)
        h = backbone.encode(tokens, entry.weights)
        label, probs = predict(entry.module.head, h)
    return ScoreResult(
        task_id=task_id,
        label=label,
        probs=tuple(float(p) for p in probs),
        cache_hit=hit,
        latency_us=(time.perf_counter_ns() - t_start) // 1000,
        truncated=tokens.truncated,
    )


def score_tokens(
    backbone: Backbone,
    weights: dict[str, Matrix] | None,
    head: ClassificationHead,
    tokens: list[TokenSeq],
) -> np.ndarray:
    """N x C class probabilities of a tokenized split: packed encodes of SCORE_BATCH, no tape, `predict` per row."""
    probs = np.empty((len(tokens), head.num_classes))
    for lo in range(0, len(tokens), SCORE_BATCH):
        h = backbone.encode(tokens[lo : lo + SCORE_BATCH], weights).data
        for i in range(len(h)):
            probs[lo + i] = predict(head, Matrix(h[i : i + 1]))[1]
    return probs


# -- registry manifest file -----------------------------------------------------


def load_registry_manifest(path: str, capacity: int = DEFAULT_CAPACITY) -> Registry:
    with open(path, "r", encoding="utf-8") as fh:
        mapping = json.load(fh)
    if not isinstance(mapping, dict):
        raise ContractError(f"{path}: registry manifest must be a JSON object")
    registry = Registry(capacity=capacity)
    for task_id, module_path in mapping.items():
        registry.register(task_id, module_path)
    return registry


# -- serving --------------------------------------------------------------------


def _finite_float(text: str) -> float:
    """JSON number or constant to float; NaN, Infinity and overflow raise, so answers stay strict JSON."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text} is not a finite number")
    return value


def handle_request_line(registry: Registry, backbone: Backbone, line: str) -> str:
    """One strict-JSON request record in, one JSON response record out; never raises."""
    try:
        req = json.loads(line, parse_float=_finite_float, parse_constant=_finite_float)
    except (ValueError, RecursionError):  # bad JSON, NaN/Infinity or an over-long integer; nesting too deep
        return json.dumps({"error": "malformed_request"})
    rid = req.get("id") if isinstance(req, dict) else None
    if not isinstance(req, dict) or not isinstance(req.get("task"), str) or not isinstance(req.get("text"), str):
        return json.dumps({"id": rid, "error": "malformed_request"})
    try:
        result = score(registry, backbone, req["task"], req["text"])
    except UnknownTaskError:
        return json.dumps({"id": rid, "error": "unknown_task"})
    except BackboneMismatchError:
        return json.dumps({"id": rid, "error": "backbone_mismatch"})
    except (FileFormatError, OSError):  # corrupt, or removed/unreadable after register
        return json.dumps({"id": rid, "error": "load_error"})
    except ScoreMuxError:
        return json.dumps({"id": rid, "error": "internal_error"})
    return json.dumps(
        {
            "id": rid,
            "task": result.task_id,
            "label": result.label,
            "probs": list(result.probs),
            "cache_hit": result.cache_hit,
            "latency_us": result.latency_us,
        }
    )


class StdioTransport:
    """Newline-delimited request/response over a pair of text streams."""

    def __init__(self, in_stream, out_stream):
        self.in_stream = in_stream
        self.out_stream = out_stream

    def run(self, handler) -> int:
        served = 0
        while line := self.in_stream.readline(MAX_REQUEST_CHARS + 1):
            if len(line) > MAX_REQUEST_CHARS and line[-1] != "\n":
                while line and line[-1] != "\n":  # drop the rest of the over-long line, a bounded chunk at a time
                    line = self.in_stream.readline(MAX_REQUEST_CHARS)
                answer = json.dumps({"error": "malformed_request"})
            elif not line.strip():
                continue
            else:
                answer = handler(line)
            self.out_stream.write(answer + "\n")
            self.out_stream.flush()
            served += 1
        return served


class TcpTransport:
    """TCP listener; one handler thread per connection, responses in order."""

    def __init__(self, host: str = "127.0.0.1", port: int = 0):
        self._sock = socket.create_server((host, port))
        self.host, self.port = self._sock.getsockname()[:2]
        self._stop = threading.Event()
        self._served = 0
        self._served_lock = threading.Lock()
        self._threads: list[threading.Thread] = []  # one per connection; finished ones go at each accept

    def stop(self) -> None:
        self._stop.set()
        try:
            # unblock accept() with a dummy connection
            with socket.create_connection((self.host, self.port), timeout=1):
                pass
        except OSError:
            pass

    def run(self, handler) -> int:
        """Serve until stopped; returns the number of requests answered."""
        try:
            while not self._stop.is_set():
                conn, _ = self._sock.accept()
                if self._stop.is_set():
                    conn.close()
                    break
                t = threading.Thread(target=self._serve_conn, args=(conn, handler), daemon=True)
                t.start()
                self._threads = [c for c in self._threads if c.is_alive()] + [t]
        finally:
            for t in self._threads:
                t.join(timeout=5)
            self._sock.close()
        with self._served_lock:
            return self._served

    def _serve_conn(self, conn: socket.socket, handler) -> None:
        # separate reader and writer: a write through one "rw" text file
        # discards the read-ahead, dropping pipelined requests; undecodable
        # bytes become U+FFFD, so a bad line is malformed, not fatal
        with (
            conn,
            conn.makefile("r", encoding="utf-8", errors="replace", newline="\n") as reader,
            conn.makefile("w", encoding="utf-8", newline="\n") as writer,
        ):
            served = StdioTransport(reader, writer).run(handler)
        with self._served_lock:
            self._served += served


def serve(registry: Registry, backbone: Backbone, transport) -> int:
    """Run the request loop until the transport's input is exhausted/stopped."""
    if not registry.manifest:
        raise ContractError("serve requires a populated registry")
    return transport.run(lambda line: handle_request_line(registry, backbone, line))
