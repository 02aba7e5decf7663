"""Run `scoremux` with the span recorder installed; the spans go to a file at exit.

    python3 perfbench/launcher.py TRACE_FILE serve --backbone B --manifest M ...

The arguments after TRACE_FILE are passed to `scoremux.cli.main` unchanged.
SIGTERM ends the process through normal interpreter exit, so a TCP server
stopped that way still writes its spans.
"""

import time

_t0 = time.perf_counter()

import atexit  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402

import scoremux.cli  # noqa: E402

import tracer  # noqa: E402


def main() -> int:
    recorder = tracer.Recorder()
    recorder.meta["import_s"] = time.perf_counter() - _t0
    tracer.install(recorder)
    atexit.register(recorder.dump, sys.argv[1])
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(0))
    return scoremux.cli.main(sys.argv[2:])


if __name__ == "__main__":
    sys.exit(main())
