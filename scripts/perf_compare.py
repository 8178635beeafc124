#!/usr/bin/env python
"""Perf-trend gate: diff a fresh perf-smoke report against the baseline.

``scripts/perf_smoke.py --out fresh.json`` records the run's speedup
ratios; this script compares them against the committed
``BENCH_baseline.json`` with a jitter tolerance (default
:data:`repro.perf.DEFAULT_TOLERANCE`) and exits non-zero on any
regression — including the "N workers must beat 1 worker" scaling
ratio, the pooled join's ``join_2v1`` and the served selects'
``serve_1v4``, each enforced only on machines whose recorded
``cpu_count`` can physically express it.

Usage::

    python scripts/perf_compare.py BENCH_baseline.json fresh.json
    python scripts/perf_compare.py baseline.json fresh.json --tolerance 0.5
"""

from __future__ import annotations

import argparse
import json
import os
import sys

sys.path.insert(
    0, os.path.join(os.path.dirname(__file__), "..", "src")
)

from repro import perf


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline", help="committed baseline JSON")
    parser.add_argument("fresh", help="freshly measured report JSON")
    parser.add_argument(
        "--tolerance",
        type=float,
        default=perf.DEFAULT_TOLERANCE,
        help="allowed fractional drop below baseline before failing "
        f"(default {perf.DEFAULT_TOLERANCE})",
    )
    args = parser.parse_args(argv)

    with open(args.baseline) as fh:
        baseline = json.load(fh)
    with open(args.fresh) as fh:
        fresh = json.load(fh)

    if not perf.scaling_enforced(fresh):
        print(
            f"note: cpu_count={fresh.get('cpu_count')} < "
            f"{fresh.get('scaling_workers', perf.SCALING_WORKERS)} "
            "workers — scaling ratios recorded but not enforced"
        )
    if not perf.join_pool_enforced(fresh):
        print(
            f"note: cpu_count={fresh.get('cpu_count')} < "
            f"{perf.JOIN_POOL_WORKERS} workers — {perf.JOIN_POOL_KEY} "
            "recorded but not enforced"
        )
    if not perf.serve_threads_enforced(fresh):
        print(
            f"note: cpu_count={fresh.get('cpu_count')} < "
            f"{perf.SERVE_THREADS_MIN_CPUS} CPUs — "
            f"{perf.SERVE_THREADS_KEY} recorded but not enforced"
        )
    failures = perf.compare(baseline, fresh, tolerance=args.tolerance)
    for key, value in sorted(fresh.get("ratios", {}).items()):
        base = baseline.get("ratios", {}).get(key)
        base_str = f"{base:.2f}x" if base is not None else "-"
        print(f"  {key}: fresh {value:.2f}x vs baseline {base_str}")
    if failures:
        for message in failures:
            print(f"FAIL: {message}")
        return 1
    print("perf compare OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
