"""``lexequal serve`` under the benchmark's span wrappers.

Usage::

    PYTHONPATH=src python benchmarks/e2e/serve_traced.py SPANS.ndjson \\
        serve --data-dir D --port 0

Installs the same wrappers as the in-process runs, records from start-up
on, and hands the remaining arguments to ``repro.cli.main``.  SIGUSR1
stops recording (the untraced half of the closed loop).  Once the server
has drained on SIGTERM, the spans are written to ``SPANS.ndjson``.
"""

from __future__ import annotations

import signal
import sys

import spans


def main(argv: list[str]) -> int:
    path, serve_argv = argv[0], argv[1:]
    tracer = spans.Tracer()
    spans.install(tracer)
    # The server owns its obs registry (it enables one at start-up), so
    # only the span recording is switched here.
    tracer.phase = "server"
    tracer.enabled = True

    def stop_recording(signum, frame) -> None:
        tracer.enabled = False

    signal.signal(signal.SIGUSR1, stop_recording)
    from repro import cli

    try:
        return cli.main(serve_argv)
    finally:
        spans.dump(tracer.records("server"), path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
