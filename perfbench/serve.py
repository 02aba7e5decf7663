"""Client side of the serve workloads: start `scoremux serve`, drive it, check every answer.

The server is the unmodified program (`python3 -m scoremux.cli serve`), or
the same command under `launcher.py` for a traced run. The client talks to it
over TCP or over the process's stdin and stdout, exactly as a caller would,
from one thread.
"""

from __future__ import annotations

import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from collections import deque

import numpy as np

import streams
from worker import vmhwm_mb

HERE = os.path.dirname(os.path.abspath(__file__))
RESPONSE_TIMEOUT_S = 10.0
PIPELINE_REQUESTS = 32
PIPELINE_TIMEOUT_S = 2.0


class Server:
    """One `scoremux serve` process; setup_s runs from launch to the first answer."""

    def __init__(self, root: str, backbone: str, manifest: str, run_dir: str,
                 tcp: bool, trace_file: str | None = None):
        prog = ["-m", "scoremux.cli"] if trace_file is None else [os.path.join(HERE, "launcher.py"), trace_file]
        cmd = [sys.executable, *prog, "serve", "--backbone", backbone, "--manifest", manifest,
               "--capacity", str(streams.CAPACITY)]
        if tcp:
            cmd += ["--tcp", "0"]
        env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self.tcp = tcp
        self.err_path = os.path.join(run_dir, f"serve-{time.monotonic_ns()}.err")
        self._err = open(self.err_path, "wb")
        self.t_launch = time.perf_counter()
        self.proc = subprocess.Popen(
            cmd, cwd=root, env=env, stderr=self._err,
            stdin=subprocess.DEVNULL if tcp else subprocess.PIPE,
            stdout=subprocess.DEVNULL if tcp else subprocess.PIPE,
        )
        self.sock = self.rfile = None
        self.setup_s = None
        if not tcp:
            self.rfile = self.proc.stdout
            return
        try:
            self.port = self._wait_port()
            self.sock, self.rfile = self.connect()
        except BaseException:
            self.proc.kill()
            self.proc.wait()
            self._err.close()
            raise

    def _wait_port(self) -> int:
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            with open(self.err_path, "rb") as fh:
                text = fh.read().decode(errors="replace")
            if "listening on tcp" in text:
                return int(text.split("listening on tcp", 1)[1].split()[0].rsplit(":", 1)[1])
            if self.proc.poll() is not None:
                break
            time.sleep(0.002)
        raise RuntimeError(f"server did not start listening: {text!r}")

    def connect(self):
        sock = socket.create_connection(("127.0.0.1", self.port), timeout=RESPONSE_TIMEOUT_S)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return sock, sock.makefile("rb")

    def send(self, data: bytes) -> None:
        if self.tcp:
            self.sock.sendall(data)
        else:
            os.write(self.proc.stdin.fileno(), data)

    def roundtrip(self, req: streams.Request) -> bytes:
        self.send(req.line)
        return self.rfile.readline()

    def first_answer(self, req: streams.Request) -> bytes:
        line = self.roundtrip(req)
        self.setup_s = time.perf_counter() - self.t_launch
        return line

    def close(self) -> float:
        """Stop the server; returns its peak RSS in MB."""
        try:
            peak = vmhwm_mb(self.proc.pid)
        except OSError:
            peak = float("nan")
        if self.tcp:
            self.rfile.close()
            self.sock.close()
            self.proc.send_signal(signal.SIGTERM)
        else:
            self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        if not self.tcp:
            self.proc.stdout.close()
        self._err.close()
        return peak


def check(req: streams.Request, raw: bytes | None, ref: dict) -> dict | None:
    """The parsed response if every field agrees with the request and the in-process label."""
    if not raw:
        return None
    try:
        resp = json.loads(raw)
    except ValueError:
        return None
    if not isinstance(resp, dict):
        return None
    if req.kind == streams.MALFORMED:
        return resp if resp.get("error") == "malformed_request" else None
    if req.kind == streams.UNKNOWN:
        return resp if resp.get("error") == "unknown_task" and resp.get("id") == req.rid else None
    probs, label = resp.get("probs"), resp.get("label")
    if resp.get("id") != req.rid or resp.get("task") != req.task:
        return None
    if not isinstance(probs, list) or not probs or not isinstance(label, int):
        return None
    ok = label == int(np.argmax(probs)) and abs(sum(probs) - 1.0) <= 1e-4 and label == ref[(req.task, req.text)]
    return resp if ok else None


def drive(server: Server, requests, seconds: float, window: int) -> dict:
    """Keep `window` requests outstanding for `seconds` (or until `requests` ends).

    With a window of 1 this is a closed loop with one caller. Answers are
    matched to requests in order and checked afterwards, so the client does
    no checking while the clock runs. `latency_s` and `done_s` (answer time
    from the start) are kept for each answered request, in order. A server that stops answering is killed
    once the phase overruns by RESPONSE_TIMEOUT_S, which ends the loop.
    """
    pending: deque = deque()
    answers, latency, done, late = [], [], [], []
    it = iter(requests)
    watchdog = threading.Timer(min(seconds, 120.0) + RESPONSE_TIMEOUT_S, server.proc.kill)
    watchdog.start()
    freed = None
    t_start = time.perf_counter()
    t_end = t_start + seconds
    try:
        while True:
            while len(pending) < window and time.perf_counter() < t_end:
                req = next(it, None)
                if req is None:
                    break
                t0 = time.perf_counter()
                if freed is not None:
                    late.append(t0 - freed)
                server.send(req.line)
                pending.append((req, t0))
            if not pending:
                break
            raw = server.rfile.readline()
            freed = time.perf_counter()
            req, t0 = pending.popleft()
            if not raw:
                answers += [(req, None)] + [(r, None) for r, _ in pending]
                break
            answers.append((req, raw))
            latency.append(freed - t0)
            done.append(freed - t_start)
    except OSError:  # timed out or the server went away: the rest count as failed
        answers += [(r, None) for r, _ in pending]
    finally:
        watchdog.cancel()
    return {"answers": answers, "latency_s": latency, "done_s": done, "late_s": late,
            "elapsed_s": time.perf_counter() - t_start}


def pipelined_probe(server: Server, requests: list) -> int:
    """Send PIPELINE_REQUESTS lines in one write on a fresh connection; count the answers."""
    sock, rfile = server.connect()
    sock.settimeout(PIPELINE_TIMEOUT_S)
    answered = 0
    try:
        sock.sendall(b"".join(r.line for r in requests[:PIPELINE_REQUESTS]))
        while answered < PIPELINE_REQUESTS:
            if not rfile.readline():
                break
            answered += 1
    except OSError:  # timeout: the rest were never answered
        pass
    finally:
        rfile.close()
        sock.close()
    return answered
