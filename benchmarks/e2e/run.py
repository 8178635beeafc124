"""End-to-end LexEQUAL benchmark: one workload, one seed, one run.

Usage (from the repository root)::

    python3 benchmarks/e2e/run.py --workload select-sql-10k --seed 1 \\
        --seconds 20 --trace 0 [--smoke] [--out DIR]

``--trace 0`` measures with every tracing hook absent and ``repro.obs``
off, and reports the end-to-end metrics; ``--trace 1`` installs the
span wrappers of :mod:`spans` and reports the per-layer metrics.  Each
metric is printed as ``name value unit n=<samples>``; the last line of
standard output is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``.  ``DIR/<workload>-s<seed>[-trace].json`` keeps the full
result, and traced runs also write their spans next to it as NDJSON.
``--smoke`` runs the same code at tiny sizes.

The program is imported from ``src/`` of the checkout this file lives
in; without it the run fails before printing a result.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import shutil
import statistics
import sys
import tempfile
from multiprocessing import resource_tracker
from pathlib import Path

from percentile import blocked_rate, percentile, tail

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

WORKLOADS = ("select-sql-10k", "join-crossscript-1500", "serve-mixed-600")

#: End-to-end metric -> unit; every untraced run reports all of them.
E2E_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "op_p50_ms": "ms",
    "ops_per_s": "1/s",
}


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--out", type=Path, default=HERE / "results")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _end_to_end(result) -> dict:
    """Latency median over the whole run; throughput median over blocks
    of the run (see ``percentile.BLOCKS``)."""
    latency = [end - start for start, end in result.latency]
    return {
        "setup_s": (statistics.median(result.setup_s), len(result.setup_s)),
        "peak_rss_mb": (result.peak_rss_mb, 1),
        "op_p50_ms": (percentile(latency, 50) * 1e3, len(latency)),
        "ops_per_s": (blocked_rate(result.throughput), len(result.throughput)),
    }


def _child_pids() -> list[int]:
    """Processes whose parent is this one, zombies included."""
    me = os.getpid()
    pids = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        # The parent pid is the second field after the "(comm)" field.
        if int(stat.rsplit(")", 1)[1].split()[1]) == me:
            pids.append(int(entry.name))
    return pids


def _stop_children() -> None:
    """Wait for every process the run started; fail if one is left.

    Pool workers and the server are stopped by the workloads.  The
    resource tracker that multiprocessing starts for shared memory is
    meant to outlive its parent, so it is stopped here and waited for.
    """
    for child in multiprocessing.active_children():
        child.join(timeout=10)
    resource_tracker._resource_tracker._stop()
    left = _child_pids()
    if left:
        raise RuntimeError(f"child processes still running: {left}")


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    import spans
    import workloads

    scale = workloads.SMOKE if args.smoke else workloads.FULL
    tracer = None
    units = E2E_UNITS
    if args.trace:
        tracer = spans.Tracer()
        spans.install(tracer)
        units = spans.LAYER_UNITS

    args.out.mkdir(parents=True, exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=args.out))
    try:
        if args.workload == "select-sql-10k":
            result = workloads.select_workload(args.seed, args.seconds, scale, tracer)
        elif args.workload == "join-crossscript-1500":
            result = workloads.join_workload(args.seed, args.seconds, scale, tracer)
        else:
            result = workloads.serve_workload(
                args.seed, args.seconds, scale, tracer, work_dir
            )
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        _stop_children()

    if args.trace:
        measured = dict(result.layers)
        measured["failed_frac"] = (result.failed / result.attempted, result.attempted)
    else:
        measured = _end_to_end(result)
    if set(measured) != set(units):
        raise RuntimeError(f"metric set mismatch: {sorted(set(measured) ^ set(units))}")

    stem = f"{args.workload}-s{args.seed}" + ("-trace" if args.trace else "")
    metrics = {}
    for name, unit in units.items():
        value, samples = measured[name]
        print(f"{name} {value!r} {unit} n={samples}")
        metrics[name] = {"value": value, "unit": unit}
    summary = {
        "correct": result.failed == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": metrics,
    }
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "smoke": args.smoke,
        **summary,
        "samples": {name: measured[name][1] for name in units},
        "setup_s": result.setup_s,
        "failures": result.failures,
        "span_counts": result.span_counts,
    }
    if args.trace:
        spans.dump(result.span_records, args.out / f"{stem}.spans.ndjson")
    else:
        # The highest percentile the sample supports, for reading; not a
        # benchmark metric, since it varies too much between runs.
        n, q, value = tail([end - start for start, end in result.latency])
        detail["op_tail"] = {"q": q, "ms": value and value * 1e3, "n": n}
        print(f"# op_tail q={q} ms={value and value * 1e3!r} n={n}")
    (args.out / f"{stem}.json").write_text(json.dumps(detail, indent=2) + "\n")
    for failure in result.failures:
        print(f"failure: {failure}", file=sys.stderr)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
