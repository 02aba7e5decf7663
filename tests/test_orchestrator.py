"""Task-module files, LRU registry semantics, scoring, and the wire protocol."""

from __future__ import annotations

import io
import json
import socket
import struct
import sys
import threading
import time
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scoremux import orchestrator
from scoremux.adapters import adapter_to_bytes, effective_weights, new_adapter
from scoremux.backbone import Backbone, BackboneConfig, tokenize
from scoremux.errors import (
    BackboneMismatchError,
    ChecksumError,
    ContractError,
    DuplicateTaskError,
    RegistrationError,
    UnknownTaskError,
    VersionMismatchError,
)
from scoremux.heads import new_head, predict
from scoremux.numerics import P64, Matrix, Rng
from scoremux.orchestrator import (
    MODULE_MAGIC,
    MODULE_VERSION,
    Registry,
    RegistryStats,
    StdioTransport,
    TaskModule,
    TcpTransport,
    handle_request_line,
    load_registry_manifest,
    load_task_module,
    module_to_bytes,
    save_task_module,
    score,
    serve,
)

from conftest import misloaded_bit_flips

CFG = BackboneConfig(seed=123)
FINGERPRINT = Backbone(CFG).fingerprint()  # of `frozen_bb`, the backbone these modules are scored with
N_TASKS = 27


def build_module(task_id: str, num_classes: int = 3, seed: int = 0, randomize: bool = False) -> TaskModule:
    adapter = new_adapter(task_id, CFG, rng=Rng(seed))
    if randomize:
        rng = Rng(seed + 1000)
        for i, p in enumerate(adapter.targets):
            p.b = rng.split(f"b{i}").normal_matrix(p.rank, p.k, std=0.05)
    return TaskModule(adapter, new_head(task_id, num_classes, CFG.d_model, Rng(seed)), FINGERPRINT)


@pytest.fixture(scope="module")
def frozen_bb():
    return Backbone(CFG).freeze()


@pytest.fixture(scope="module")
def module_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("modules")
    paths = {}
    for i in range(N_TASKS):
        tid = f"T{i:02d}"
        path = root / f"{tid}.mod"
        save_task_module(build_module(tid, num_classes=2 + i % 5, seed=i, randomize=True), str(path))
        paths[tid] = str(path)
    return paths


def fresh_registry(module_dir, capacity=4):
    reg = Registry(capacity=capacity)
    for tid, path in module_dir.items():
        reg.register(tid, path)
    return reg


def v1_module_image(module: TaskModule) -> bytes:
    """A module in the version-1 layout: a complete adapter image nested in the frame, then a created_at stamp."""
    adapter_blob = adapter_to_bytes(module.adapter)
    head, fingerprint = module.head, module.backbone_fingerprint.encode()
    body = b"".join([
        MODULE_MAGIC, struct.pack("<HI", 1, len(adapter_blob)), adapter_blob,
        struct.pack("<H", head.num_classes), head.weight.data.astype("<f4").tobytes(),
        head.bias.data.astype("<f4").tobytes(), struct.pack("<QH", 0, len(fingerprint)), fingerprint,
    ])
    return body + struct.pack("<I", zlib.crc32(body))


def save_registry_manifest(registry: Registry, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(dict(sorted(registry.manifest.items())), fh, indent=2)


def lock_is_free(reg: Registry) -> bool:
    """Whether another thread takes the registry lock without waiting."""
    taken: list[bool] = []

    def probe():
        if reg._lock.acquire(blocking=False):
            reg._lock.release()
            taken.append(True)

    t = threading.Thread(target=probe, daemon=True)
    t.start()
    t.join(timeout=5)
    assert not t.is_alive()
    return taken == [True]


def run_callers(targets: dict[str, object], timeout: float = 30) -> list[Exception]:
    """Start one daemon thread per name, join each with a bound, and return what they raised."""
    errors: list[Exception] = []

    def guarded(target):
        try:
            target()
        except Exception as exc:  # reported to the test, which asserts there is none
            errors.append(exc)

    threads = [threading.Thread(target=guarded, args=(t,), name=n, daemon=True) for n, t in targets.items()]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=timeout)
        assert not t.is_alive(), f"caller {t.name} did not finish"
    return errors


def reference_lru(accesses, capacity):
    """Independent LRU model: list ordered least- to most-recent."""
    cache: list[str] = []
    for a in accesses:
        if a in cache:
            cache.remove(a)
        elif len(cache) == capacity:
            cache.pop(0)
        cache.append(a)
    return cache


class TestModuleFile:
    def test_round_trip_byte_identical(self, tmp_path):
        module = build_module("T00", randomize=True)
        p1, p2 = tmp_path / "m1.bin", tmp_path / "m2.bin"
        save_task_module(module, str(p1))
        loaded = load_task_module(str(p1))
        save_task_module(loaded, str(p2))
        assert p1.read_bytes() == p2.read_bytes()
        assert loaded.task_id == "T00"
        assert loaded.backbone_fingerprint == module.backbone_fingerprint
        np.testing.assert_array_equal(loaded.head.weight.data, module.head.weight.data)

    def test_flat_frame_holds_each_fact_once(self):
        module = build_module("T00", num_classes=4, randomize=True)
        raw = module_to_bytes(module)
        adapter_body = adapter_to_bytes(module.adapter)[6:-4]  # the adapter file minus its magic, version and CRC
        head = module.head
        assert MODULE_VERSION == 2
        assert raw[:6] == MODULE_MAGIC + struct.pack("<H", 2)
        assert raw[6 : 6 + len(adapter_body)] == adapter_body
        head_bytes = 2 + 4 * (head.num_classes * head.d_model + head.num_classes)
        assert len(raw) == 6 + len(adapter_body) + head_bytes + 2 + len(FINGERPRINT) + 4
        assert module.task_id == module.adapter.task_id == "T00"

    def test_every_single_bit_flip_is_a_file_error(self, tmp_path):
        # d = 64 = 0x40, so one flip turns a patch's d or k field to 0
        small = BackboneConfig(vocab_size=50, d_model=64, n_layers=1, n_heads=2, d_ff=16, max_seq_len=8)
        adapter = new_adapter("T00", small, r=1, rng=Rng(1))
        for i, p in enumerate(adapter.targets):
            p.b = Rng(2).split(f"b{i}").normal_matrix(p.rank, p.k, std=0.05)
        raw = module_to_bytes(TaskModule(adapter, new_head("T00", 3, small.d_model, Rng(1)), FINGERPRINT))
        assert misloaded_bit_flips(raw, tmp_path / "m.mod", load_task_module) == []

    def test_version_1_module_refused(self, tmp_path):
        path = tmp_path / "v1.mod"
        path.write_bytes(v1_module_image(build_module("T00")))
        with pytest.raises(RegistrationError, match="unsupported module version 1"):
            Registry().register("T00", str(path))
        with pytest.raises(VersionMismatchError):
            load_task_module(str(path))

    def test_corrupt_byte_detected(self, tmp_path):
        path = tmp_path / "m.bin"
        save_task_module(build_module("T00"), str(path))
        raw = bytearray(path.read_bytes())
        raw[len(raw) // 3] ^= 0x10
        path.write_bytes(bytes(raw))
        with pytest.raises(ChecksumError):
            load_task_module(str(path))


class TestRegister:
    def test_27_tasks_manifest_without_loading(self, module_dir):
        reg = fresh_registry(module_dir)
        assert len(reg.manifest) == N_TASKS
        assert reg.loaded_ids() == []
        assert reg.stats.loads == 0

    def test_duplicate_rejected_manifest_unchanged(self, module_dir):
        reg = fresh_registry(module_dir)
        with pytest.raises(DuplicateTaskError):
            reg.register("T00", module_dir["T01"])
        assert reg.manifest["T00"] == module_dir["T00"]

    def test_invalid_header_rejected(self, tmp_path):
        bogus = tmp_path / "bogus.mod"
        bogus.write_bytes(b"NOPE" + bytes(20))
        reg = Registry()
        with pytest.raises(RegistrationError):
            reg.register("T00", str(bogus))
        with pytest.raises(RegistrationError):
            reg.register("T01", str(tmp_path / "missing.mod"))
        assert reg.manifest == {}

    def test_entry_naming_another_tasks_file_rejected(self, module_dir):
        reg = Registry()
        with pytest.raises(RegistrationError, match="'T01', not 'T00'"):
            reg.register("T00", module_dir["T01"])
        assert reg.manifest == {}

    def test_register_then_score_loads_once(self, module_dir, frozen_bb):
        reg = fresh_registry(module_dir)
        score(reg, frozen_bb, "T03", "eine antwort")
        assert reg.stats.loads == 1
        score(reg, frozen_bb, "T03", "noch eine")
        assert reg.stats.loads == 1


class TestEnsureLoadedLru:
    def test_capacity_two_evicts_least_recent(self, module_dir, frozen_bb):
        reg = fresh_registry(module_dir, capacity=2)
        for tid in ("T00", "T01", "T02"):
            reg.ensure_loaded(tid, frozen_bb)
        assert reg.loaded_ids() == ["T01", "T02"]
        assert reg.stats.evictions == 1

    def test_touch_refreshes_recency(self, module_dir, frozen_bb):
        reg = fresh_registry(module_dir, capacity=2)
        reg.ensure_loaded("T00", frozen_bb)
        reg.ensure_loaded("T01", frozen_bb)
        reg.ensure_loaded("T00", frozen_bb)  # refresh A
        reg.ensure_loaded("T02", frozen_bb)  # evicts B
        assert reg.loaded_ids() == ["T00", "T02"]

    def test_rerequest_is_hit_without_eviction(self, module_dir, frozen_bb):
        reg = fresh_registry(module_dir, capacity=2)
        reg.ensure_loaded("T00", frozen_bb)
        before = reg.stats.hits
        reg.ensure_loaded("T00", frozen_bb)
        assert reg.stats.hits == before + 1
        assert reg.stats.evictions == 0

    def test_weights_derived_once_per_admission(self, module_dir, frozen_bb, monkeypatch):
        from scoremux import orchestrator

        derived = []
        real = orchestrator.effective_weights
        monkeypatch.setattr(orchestrator, "effective_weights", lambda b, ad: derived.append(ad.task_id) or real(b, ad))
        reg = fresh_registry(module_dir, capacity=2)
        first = reg.ensure_loaded("T00", frozen_bb)
        for tid in ("T00", "T00", "T01", "T00"):
            reg.ensure_loaded(tid, frozen_bb)
        assert derived == ["T00", "T01"]  # a hit builds nothing
        assert reg.ensure_loaded("T00", frozen_bb).weights is first.weights

    def test_unknown_task(self, module_dir, frozen_bb):
        reg = fresh_registry(module_dir)
        with pytest.raises(UnknownTaskError):
            reg.ensure_loaded("T99", frozen_bb)

    def test_corrupt_file_leaves_registry_unchanged(self, module_dir, frozen_bb, tmp_path):
        path = tmp_path / "bad.mod"
        save_task_module(build_module("TBAD"), str(path))
        raw = bytearray(path.read_bytes())
        raw[-10] ^= 0xFF
        path.write_bytes(bytes(raw))
        reg = fresh_registry(module_dir, capacity=2)
        reg.register("TBAD", str(path))
        reg.ensure_loaded("T00", frozen_bb)
        stats_before = (reg.stats.hits, reg.stats.misses, reg.stats.loads, reg.stats.evictions)
        with pytest.raises(ChecksumError):
            reg.ensure_loaded("TBAD", frozen_bb)
        assert reg.loaded_ids() == ["T00"]
        assert (reg.stats.hits, reg.stats.misses, reg.stats.loads, reg.stats.evictions) == stats_before

    @given(
        st.lists(st.integers(0, N_TASKS - 1), min_size=1, max_size=120),
        st.integers(1, 8),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_reference_lru_simulation(self, module_dir, frozen_bb, accesses, capacity):
        reg = fresh_registry(module_dir, capacity=capacity)
        names = [f"T{i:02d}" for i in accesses]
        for tid in names:
            reg.ensure_loaded(tid, frozen_bb)
        assert reg.loaded_ids() == reference_lru(names, capacity)

    def test_stats_conservation_distinct_tasks(self, module_dir, frozen_bb):
        reg = fresh_registry(module_dir, capacity=4)
        for i in range(N_TASKS):
            reg.ensure_loaded(f"T{i:02d}", frozen_bb)
        assert reg.stats.loads == N_TASKS
        assert reg.stats.evictions == max(0, reg.stats.loads - reg.capacity)

    def test_memory_bound(self, module_dir, frozen_bb):
        # each resident module carries its effective Q and V weights: 2 layers x 2 x d x d float32 = 64 KB
        derived = CFG.n_layers * 2 * CFG.d_model * CFG.d_model * 4
        assert derived == 65536
        reg = fresh_registry(module_dir, capacity=3)
        max_bytes = 0
        for i in range(N_TASKS):
            module, _ = reg.ensure_loaded(f"T{i:02d}", frozen_bb)
            max_bytes = max(max_bytes, module.param_bytes() + derived)
            assert reg.resident_module_bytes() <= reg.capacity * max_bytes
        assert len(reg.loaded_ids()) == 3
        resident = [load_task_module(module_dir[tid]) for tid in reg.loaded_ids()]
        assert reg.resident_module_bytes() == sum(m.param_bytes() + derived for m in resident)


class TestScore:
    def test_zero_init_module_matches_bare_backbone(self, frozen_bb, tmp_path):
        module = build_module("T00", num_classes=4, seed=5, randomize=False)
        path = tmp_path / "m.mod"
        save_task_module(module, str(path))
        reg = Registry(capacity=2)
        reg.register("T00", str(path))
        text = "der stoff leitet den strom"
        result = score(reg, frozen_bb, "T00", text)
        h = frozen_bb.encode(tokenize(text, CFG))
        label, probs = predict(module.head, h)
        assert result.label == label
        np.testing.assert_allclose(result.probs, probs, atol=1e-6)

    def test_identical_requests_identical_results(self, module_dir, frozen_bb):
        reg = fresh_registry(module_dir)
        a = score(reg, frozen_bb, "T05", "die pflanze braucht licht")
        b = score(reg, frozen_bb, "T05", "die pflanze braucht licht")
        assert a.label == b.label and a.probs == b.probs
        assert not a.cache_hit and b.cache_hit

    def test_matches_standalone_attach_predict(self, module_dir, frozen_bb):
        reg = fresh_registry(module_dir)
        result = score(reg, frozen_bb, "T07", "woerter ueber energie")
        module = load_task_module(module_dir["T07"])
        h = frozen_bb.encode(tokenize("woerter ueber energie", CFG), effective_weights(frozen_bb, module.adapter)[0])
        label, probs = predict(module.head, h)
        assert result.label == label
        assert result.probs == tuple(float(p) for p in probs)

    def test_round_robin_27_tasks_capacity_4(self, module_dir, frozen_bb):
        reg = fresh_registry(module_dir, capacity=4)
        for i in range(N_TASKS):
            score(reg, frozen_bb, f"T{i:02d}", "text")
        assert reg.stats.loads == reg.stats.misses == N_TASKS
        assert len(reg.loaded_ids()) == 4

    def test_unfrozen_backbone_rejected(self, module_dir):
        reg = fresh_registry(module_dir)
        with pytest.raises(ContractError, match="frozen"):
            score(reg, Backbone(CFG), "T00", "x")

    def test_oversized_input_truncated_and_flagged(self, module_dir, frozen_bb):
        reg = fresh_registry(module_dir)
        long_text = " ".join(f"w{i}" for i in range(200))
        result = score(reg, frozen_bb, "T01", long_text)
        assert result.truncated
        assert result.latency_us >= 0

    def test_concurrent_scoring_stats_conserved(self, module_dir, frozen_bb):
        import concurrent.futures

        reg = fresh_registry(module_dir, capacity=2)
        tasks = [f"T{i % 5:02d}" for i in range(60)]
        with concurrent.futures.ThreadPoolExecutor(max_workers=6) as pool:
            results = list(pool.map(lambda t: score(reg, frozen_bb, t, "ein text"), tasks))
        assert len(results) == 60
        assert reg.stats.hits + reg.stats.misses == 60
        assert len(reg.loaded_ids()) <= 2

    def test_stats_written_only_under_registry_lock(self, module_dir, frozen_bb):
        reg = fresh_registry(module_dir, capacity=2)

        class LockedStats(RegistryStats):
            def __setattr__(self, name, value):
                assert reg._lock._is_owned(), f"stats.{name} written without the registry lock"
                super().__setattr__(name, value)

        with reg._lock:
            reg.stats = LockedStats()
        score(reg, frozen_bb, "T00", "ein text")  # miss: load + compute
        score(reg, frozen_bb, "T00", "ein text")  # hit: compute
        assert (reg.stats.misses, reg.stats.hits) == (1, 1)
        assert reg.stats.compute_time_us >= 0


class TestRegistryLock:
    def test_callers_waiting_for_one_task_admit_it_once(self, module_dir):
        # capacity 1: X holds T00 inside encode while A and B both ask for T01
        bb = Backbone(CFG).freeze()
        encode, entered, release = bb.encode, threading.Event(), threading.Event()

        def held_encode(tokens, weights=None):
            if threading.current_thread().name == "X":
                entered.set()
                assert release.wait(timeout=10)
            return encode(tokens, weights)

        bb.encode = held_encode
        reg = fresh_registry(module_dir, capacity=1)

        def once_x_is_inside(then):
            def call():
                assert entered.wait(timeout=10)
                then()

            return call

        def release_x():
            time.sleep(0.2)  # time for A and B to reach the registry while X holds T00
            release.set()

        assert run_callers({
            "X": lambda: score(reg, bb, "T00", "ein text"),
            "A": once_x_is_inside(lambda: score(reg, bb, "T01", "ein text")),
            "B": once_x_is_inside(lambda: score(reg, bb, "T01", "ein text")),
            "release": once_x_is_inside(release_x),
        }) == []
        assert reg.loaded_ids() == ["T01"]
        stats = reg.stats  # the reference LRU over T00, T01, T01
        assert (stats.hits, stats.misses, stats.evictions, stats.loads) == (1, 2, 1, 2)

    def test_one_caller_encodes_at_a_time(self, module_dir):
        bb = Backbone(CFG).freeze()
        encode, count_lock = bb.encode, threading.Lock()
        inside, most = [0], [0]

        def counted_encode(tokens, weights=None):
            with count_lock:
                inside[0] += 1
                most[0] = max(most[0], inside[0])
            try:
                time.sleep(0.002)  # widen the window in which another caller could enter
                return encode(tokens, weights)
            finally:
                with count_lock:
                    inside[0] -= 1

        bb.encode = counted_encode
        reg = fresh_registry(module_dir, capacity=2)

        def caller(k):
            return lambda: [score(reg, bb, f"T{(k + i) % 3:02d}", "ein text") for i in range(6)]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads often, so an unguarded update would be lost
        try:
            assert run_callers({f"C{k}": caller(k) for k in range(4)}) == []
        finally:
            sys.setswitchinterval(interval)
        assert most[0] == 1
        assert reg.stats.hits + reg.stats.misses == 24
        assert lock_is_free(reg)

    def test_caller_reads_registry_inside_its_block(self, module_dir, frozen_bb):
        reg = fresh_registry(module_dir, capacity=2)
        seen = []

        def caller():
            with reg.acquire("T00", frozen_bb) as (entry, hit):
                seen.append((reg.loaded_ids(), hit, entry.module.task_id))

        assert run_callers({"caller": caller}, timeout=10) == []
        assert seen == [(["T00"], False, "T00")]
        assert lock_is_free(reg)


class TestManifestFile:
    def test_round_trip(self, module_dir, tmp_path):
        reg = fresh_registry(module_dir)
        path = tmp_path / "manifest.json"
        save_registry_manifest(reg, str(path))
        loaded = load_registry_manifest(str(path), capacity=3)
        assert loaded.manifest == reg.manifest
        assert loaded.capacity == 3


class TestServe:
    def make_request(self, rid, task, text="eine antwort"):
        return json.dumps({"id": rid, "task": task, "text": text})

    def padded_request(self, rid, task, length):
        """A valid request of exactly `length` characters: the record padded with spaces before its `}`."""
        req = self.make_request(rid, task)
        return req[:-1] + " " * (length - len(req)) + "}"

    def test_protocol_echo_contract(self, module_dir, frozen_bb):
        reg = fresh_registry(module_dir)
        out = handle_request_line(reg, frozen_bb, self.make_request(1, "T01"))
        doc = json.loads(out)
        assert list(doc) == ["id", "task", "label", "probs", "cache_hit", "latency_us"]
        assert doc["id"] == 1 and doc["task"] == "T01"
        assert abs(sum(doc["probs"]) - 1.0) < 1e-6

    def test_unknown_task_error_response(self, module_dir, frozen_bb):
        reg = fresh_registry(module_dir)
        doc = json.loads(handle_request_line(reg, frozen_bb, self.make_request(2, "TXX")))
        assert doc == {"id": 2, "error": "unknown_task"}

    def test_malformed_line_generic_error(self, module_dir, frozen_bb):
        reg = fresh_registry(module_dir)
        doc = json.loads(handle_request_line(reg, frozen_bb, "{not json"))
        assert doc["error"] == "malformed_request"
        doc2 = json.loads(handle_request_line(reg, frozen_bb, json.dumps({"id": 5, "task": 7})))
        assert doc2 == {"id": 5, "error": "malformed_request"}

    def test_thousand_request_replay(self, module_dir, frozen_bb):
        reg = fresh_registry(module_dir, capacity=4)
        gen = np.random.default_rng(0)
        lines = []
        for i in range(1000):
            tid = f"T{int(gen.integers(0, N_TASKS)):02d}"
            lines.append(self.make_request(i, tid, f"antwort nummer {i % 17}"))
        stdin = io.StringIO("\n".join(lines) + "\n")
        stdout = io.StringIO()
        served = serve(reg, frozen_bb, StdioTransport(stdin, stdout))
        responses = [json.loads(l) for l in stdout.getvalue().splitlines()]
        assert served == 1000 and len(responses) == 1000
        assert [r["id"] for r in responses] == list(range(1000))
        assert reg.stats.hits + reg.stats.misses == 1000

    def test_bad_lines_do_not_stop_loop(self, module_dir, frozen_bb):
        reg = fresh_registry(module_dir)
        lines = [
            self.make_request(1, "T01"),
            "garbage {{{",
            json.dumps({"id": 3, "task": "TXX", "text": "x"}),
            self.make_request(4, "T02"),
        ]
        stdout = io.StringIO()
        serve(reg, frozen_bb, StdioTransport(io.StringIO("\n".join(lines) + "\n"), stdout))
        responses = [json.loads(l) for l in stdout.getvalue().splitlines()]
        assert len(responses) == 4
        assert responses[1]["error"] == "malformed_request"
        assert responses[2]["error"] == "unknown_task"
        assert responses[3]["task"] == "T02"

    def test_module_file_removed_after_register_is_load_error(self, module_dir, frozen_bb, tmp_path):
        path = tmp_path / "gone.mod"
        path.write_bytes(open(module_dir["T03"], "rb").read())
        reg = fresh_registry({"T03": str(path), "T01": module_dir["T01"]})
        path.unlink()
        lines = [self.make_request(1, "T03"), self.make_request(2, "T01")]
        stdout = io.StringIO()
        served = serve(reg, frozen_bb, StdioTransport(io.StringIO("\n".join(lines) + "\n"), stdout))
        responses = [json.loads(l) for l in stdout.getvalue().splitlines()]
        assert served == 2
        assert responses[0] == {"id": 1, "error": "load_error"}
        assert responses[1]["id"] == 2 and responses[1]["task"] == "T01"
        assert reg.loaded_ids() == ["T01"]

    def test_corrupt_patch_dimension_is_load_error(self, module_dir, frozen_bb, tmp_path):
        raw = bytearray(open(module_dir["T03"], "rb").read())
        offset = 4 + 2 + (2 + 3) + 2 + 8 + 2 + 2 + 1  # magic, version, task id, rank, alpha, count, layer, kind
        assert struct.unpack_from("<I", raw, offset)[0] == CFG.d_model
        raw[offset] ^= 0x01
        path = tmp_path / "T03.mod"
        path.write_bytes(bytes(raw))
        reg = fresh_registry({"T03": str(path), "T01": module_dir["T01"]})
        lines = [self.make_request(1, "T03"), self.make_request(2, "T01")]
        stdout = io.StringIO()
        assert serve(reg, frozen_bb, StdioTransport(io.StringIO("\n".join(lines) + "\n"), stdout)) == 2
        responses = [json.loads(l) for l in stdout.getvalue().splitlines()]
        assert responses[0] == {"id": 1, "error": "load_error"}
        assert responses[1]["id"] == 2 and responses[1]["task"] == "T01"

    def test_deeply_nested_json_is_malformed(self, module_dir, frozen_bb):
        reg = fresh_registry(module_dir)
        lines = ["[" * 100_000, self.make_request(2, "T01")]
        stdout = io.StringIO()
        served = serve(reg, frozen_bb, StdioTransport(io.StringIO("\n".join(lines) + "\n"), stdout))
        responses = [json.loads(l) for l in stdout.getvalue().splitlines()]
        assert served == 2
        assert responses[0] == {"error": "malformed_request"}
        assert responses[1]["id"] == 2 and responses[1]["task"] == "T01"

    def test_overlong_integer_is_malformed(self, module_dir, frozen_bb):
        # json.loads raises a plain ValueError past the int-string conversion limit (4,300 digits)
        reg = fresh_registry(module_dir)
        huge = '{"id": ' + "1" * 5000 + ', "task": "T01", "text": "x"}'
        lines = [self.make_request(1, "T01"), huge, self.make_request(3, "T02")]
        stdout = io.StringIO()
        served = serve(reg, frozen_bb, StdioTransport(io.StringIO("\n".join(lines) + "\n"), stdout))
        responses = [json.loads(l) for l in stdout.getvalue().splitlines()]
        assert served == 3
        assert responses[0]["id"] == 1 and responses[0]["task"] == "T01"
        assert responses[1] == {"error": "malformed_request"}
        assert responses[2]["id"] == 3 and responses[2]["task"] == "T02"

    @pytest.mark.parametrize("rid", ["NaN", "Infinity", "-Infinity", "1e400", "[NaN]"])
    def test_non_finite_number_is_malformed(self, module_dir, frozen_bb, rid):
        # echoing such an id back would make an answer that a strict JSON parser rejects
        reg = fresh_registry(module_dir)
        line = '{"id": ' + rid + ', "task": "T01", "text": "x"}'
        out = handle_request_line(reg, frozen_bb, line)
        assert json.loads(out, parse_constant=lambda c: pytest.fail(f"answer holds {c}")) == {
            "error": "malformed_request"
        }

    def test_module_for_another_backbone_is_mismatch(self, module_dir, frozen_bb, tmp_path):
        module = build_module("TOther", seed=3)
        other = Backbone(BackboneConfig(seed=CFG.seed + 1)).fingerprint()
        module.backbone_fingerprint = other
        save_task_module(module, str(tmp_path / "TOther.mod"))
        reg = fresh_registry({"TOther": str(tmp_path / "TOther.mod"), "T01": module_dir["T01"]})
        lines = [self.make_request(1, "TOther"), self.make_request(2, "T01")]
        stdout = io.StringIO()
        served = serve(reg, frozen_bb, StdioTransport(io.StringIO("\n".join(lines) + "\n"), stdout))
        responses = [json.loads(l) for l in stdout.getvalue().splitlines()]
        assert served == 2
        assert responses[0] == {"id": 1, "error": "backbone_mismatch"}
        assert responses[1]["id"] == 2 and responses[1]["task"] == "T01"
        with pytest.raises(BackboneMismatchError):
            score(reg, frozen_bb, "TOther", "eine antwort")
        assert lock_is_free(reg)  # the mismatch released the registry lock

    def test_mismatched_module_takes_no_resident_slot(self, frozen_bb, tmp_path):
        bad = build_module("BAD", seed=3)
        other = Backbone(BackboneConfig(seed=CFG.seed + 1)).fingerprint()
        bad.backbone_fingerprint = other
        paths = {"OK": str(tmp_path / "OK.mod"), "BAD": str(tmp_path / "BAD.mod")}
        save_task_module(build_module("OK", seed=1, randomize=True), paths["OK"])
        save_task_module(bad, paths["BAD"])
        reg = fresh_registry(paths, capacity=1)
        lines = [self.make_request(i, tid) for i, tid in enumerate(["OK", "BAD", "OK", "BAD"])]
        stdout = io.StringIO()
        assert serve(reg, frozen_bb, StdioTransport(io.StringIO("\n".join(lines) + "\n"), stdout)) == 4
        responses = [json.loads(l) for l in stdout.getvalue().splitlines()]
        assert responses[0]["task"] == "OK" and responses[0]["cache_hit"] is False
        assert responses[1] == {"id": 1, "error": "backbone_mismatch"}
        assert responses[2]["task"] == "OK" and responses[2]["cache_hit"] is True
        assert responses[3] == {"id": 3, "error": "backbone_mismatch"}
        assert reg.loaded_ids() == ["OK"]
        stats = reg.stats  # the two refused reads count as loads, not as hits, misses or evictions
        assert (stats.hits, stats.misses, stats.evictions, stats.loads) == (1, 1, 0, 3)

    def test_float64_backbone_scores_through_default_registry(self, tmp_path):
        bb64 = Backbone(CFG, P64).freeze()
        module = build_module("T64", seed=4, randomize=True)
        module.backbone_fingerprint = bb64.frozen_fingerprint
        paths = {"T64": str(tmp_path / "T64.mod")}
        save_task_module(module, paths["T64"])
        stdout = io.StringIO()
        request = io.StringIO(self.make_request(1, "T64") + "\n")
        assert serve(fresh_registry(paths, capacity=2), bb64, StdioTransport(request, stdout)) == 1
        served = json.loads(stdout.getvalue())
        expected = score(fresh_registry(paths, capacity=2), bb64, "T64", "eine antwort")
        assert served["probs"] == list(expected.probs)

    def test_resident_module_is_mismatch_for_backbone_of_other_width(self, module_dir, frozen_bb):
        # a fingerprint hashes the parameter bytes, so it matches a backbone of one precision only
        bb64 = Backbone(CFG, P64).freeze()
        reg = fresh_registry({"T01": module_dir["T01"]}, capacity=1)
        score(reg, frozen_bb, "T01", "eine antwort")
        doc = json.loads(handle_request_line(reg, bb64, self.make_request(1, "T01")))
        assert doc == {"id": 1, "error": "backbone_mismatch"}
        assert reg.loaded_ids() == ["T01"]
        assert (reg.stats.loads, reg.stats.hits, reg.stats.misses) == (1, 0, 1)

    def test_nonfinite_head_is_internal_error(self, module_dir, frozen_bb, tmp_path):
        module = build_module("TNaN", seed=3)
        module.head.weight = Matrix(np.full(module.head.weight.shape, np.nan, dtype=np.float32))
        save_task_module(module, str(tmp_path / "TNaN.mod"))
        reg = fresh_registry({"TNaN": str(tmp_path / "TNaN.mod"), "T01": module_dir["T01"]})
        lines = [self.make_request(1, "TNaN"), self.make_request(2, "T01")]
        stdout = io.StringIO()
        served = serve(reg, frozen_bb, StdioTransport(io.StringIO("\n".join(lines) + "\n"), stdout))
        responses = [json.loads(l) for l in stdout.getvalue().splitlines()]
        assert served == 2
        assert responses[0] == {"id": 1, "error": "internal_error"}
        assert responses[1]["id"] == 2 and responses[1]["task"] == "T01"

    def test_overlong_line_is_malformed_and_next_line_scored(self, module_dir, frozen_bb, monkeypatch):
        cap = 64
        monkeypatch.setattr(orchestrator, "MAX_REQUEST_CHARS", cap)
        reg = fresh_registry(module_dir)
        lines = [
            self.make_request(1, "T01"),
            self.padded_request(2, "T01", 10 * cap),
            self.padded_request(3, "T02", cap),
            self.padded_request(4, "T02", cap + 1),
            self.make_request(5, "T01"),
        ]

        class Recorded(io.StringIO):
            longest = 0

            def readline(self, size=-1):
                line = super().readline(size)
                Recorded.longest = max(Recorded.longest, len(line))
                return line

        stdout = io.StringIO()
        served = serve(reg, frozen_bb, StdioTransport(Recorded("\n".join(lines) + "\n" + "y" * (cap + 1)), stdout))
        docs = [json.loads(l) for l in stdout.getvalue().splitlines()]
        assert served == 6 and len(docs) == 6
        assert docs[0]["id"] == 1 and docs[0]["task"] == "T01"
        assert docs[1] == {"error": "malformed_request"}
        assert docs[2]["id"] == 3 and docs[2]["task"] == "T02"
        assert docs[3] == {"error": "malformed_request"}  # one character over the cap
        assert docs[4]["id"] == 5 and docs[4]["task"] == "T01"
        assert docs[5] == {"error": "malformed_request"}  # over the cap at EOF, no newline
        assert Recorded.longest <= cap + 1

    def test_tcp_overlong_line_keeps_connection(self, module_dir, frozen_bb, monkeypatch):
        cap = 64
        monkeypatch.setattr(orchestrator, "MAX_REQUEST_CHARS", cap)
        reg = fresh_registry(module_dir)
        transport = TcpTransport(port=0)
        served = []
        server = threading.Thread(target=lambda: served.append(serve(reg, frozen_bb, transport)), daemon=True)
        server.start()
        lines = [
            self.make_request(1, "T01"), self.padded_request(2, "T01", 10 * cap), self.padded_request(3, "T02", cap)
        ]
        try:
            with socket.create_connection(("127.0.0.1", transport.port), timeout=5) as conn:
                conn.sendall("".join(line + "\n" for line in lines).encode())
                with conn.makefile("r", encoding="utf-8", newline="\n") as reader:
                    docs = [json.loads(reader.readline()) for _ in lines]
        finally:
            transport.stop()
            server.join(timeout=5)
        assert not server.is_alive()
        assert docs[0]["id"] == 1 and docs[0]["task"] == "T01"
        assert docs[1] == {"error": "malformed_request"}
        assert docs[2]["id"] == 3 and docs[2]["task"] == "T02"
        assert served == [3]

    def test_empty_registry_rejected(self, frozen_bb):
        with pytest.raises(ContractError):
            serve(Registry(), frozen_bb, StdioTransport(io.StringIO(""), io.StringIO()))

    def test_tcp_transport_round_trip(self, module_dir, frozen_bb):
        reg = fresh_registry(module_dir)
        transport = TcpTransport(port=0)
        server = threading.Thread(target=serve, args=(reg, frozen_bb, transport), daemon=True)
        server.start()
        try:
            with socket.create_connection(("127.0.0.1", transport.port), timeout=5) as conn:
                # makefile() holds the fd: close it or the server never sees EOF
                with conn.makefile("rw", encoding="utf-8", newline="\n") as stream:
                    for rid, task in ((1, "T01"), (2, "T02"), (3, "TXX")):
                        stream.write(self.make_request(rid, task) + "\n")
                        stream.flush()
                        doc = json.loads(stream.readline())
                        assert doc["id"] == rid
                        if task == "TXX":
                            assert doc["error"] == "unknown_task"
                        else:
                            assert doc["task"] == task
        finally:
            transport.stop()
            server.join(timeout=5)
        assert not server.is_alive()

    def test_tcp_finished_connection_threads_are_dropped(self, module_dir, frozen_bb):
        reg = fresh_registry(module_dir)
        transport = TcpTransport(port=0)
        server = threading.Thread(target=serve, args=(reg, frozen_bb, transport), daemon=True)
        server.start()
        try:
            for rid in range(10):
                with socket.create_connection(("127.0.0.1", transport.port), timeout=5) as conn:
                    conn.sendall((self.make_request(rid, "T01") + "\n").encode())
                    with conn.makefile("r", encoding="utf-8", newline="\n") as reader:
                        assert json.loads(reader.readline())["id"] == rid
                deadline = time.monotonic() + 5
                while any(t.is_alive() for t in transport._threads) and time.monotonic() < deadline:
                    time.sleep(0.01)
            # each accept dropped the finished threads before it: only the latest connection's is left
            assert len(transport._threads) == 1
        finally:
            transport.stop()
            server.join(timeout=5)
        assert not server.is_alive()

    def test_tcp_pipelined_requests_all_answered_in_order(self, module_dir, frozen_bb):
        reg = fresh_registry(module_dir)
        transport = TcpTransport(port=0)
        served = []
        server = threading.Thread(target=lambda: served.append(serve(reg, frozen_bb, transport)), daemon=True)
        server.start()
        tasks = [f"T{i % 5:02d}" for i in range(32)]
        try:
            with socket.create_connection(("127.0.0.1", transport.port), timeout=5) as conn:
                conn.sendall("".join(self.make_request(i, t) + "\n" for i, t in enumerate(tasks)).encode())
                with conn.makefile("r", encoding="utf-8", newline="\n") as reader:
                    docs = [json.loads(reader.readline()) for _ in tasks]
        finally:
            transport.stop()
            server.join(timeout=5)
        assert not server.is_alive()
        assert [d["id"] for d in docs] == list(range(32))
        assert [d["task"] for d in docs] == tasks
        assert served == [32]

    def test_tcp_undecodable_line_is_malformed(self, module_dir, frozen_bb):
        reg = fresh_registry(module_dir)
        transport = TcpTransport(port=0)
        served = []
        server = threading.Thread(target=lambda: served.append(serve(reg, frozen_bb, transport)), daemon=True)
        server.start()
        try:
            with socket.create_connection(("127.0.0.1", transport.port), timeout=5) as conn:
                payload = self.make_request(1, "T01") + "\n", b"\xff\xfe\n", self.make_request(3, "T02") + "\n"
                conn.sendall(payload[0].encode() + payload[1] + payload[2].encode())
                with conn.makefile("r", encoding="utf-8", newline="\n") as reader:
                    lines = [reader.readline() for _ in range(3)]
        finally:
            transport.stop()
            server.join(timeout=5)
        assert not server.is_alive()
        docs = [json.loads(line) for line in lines]
        assert docs[0]["id"] == 1 and docs[0]["task"] == "T01"
        assert docs[1] == {"error": "malformed_request"}
        assert docs[2]["id"] == 3 and docs[2]["task"] == "T02"
        assert served == [3]
