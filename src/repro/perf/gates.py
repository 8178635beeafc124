"""Performance floors and the perf-regression comparison gate.

Reports are plain dicts (the JSON written by ``scripts/perf_smoke.py``
and ``benchmarks/bench_parallel_scaling.py``)::

    {
      "rows": 1500,
      "cpu_count": 8,
      "scaling_workers": 4,
      "ratios": {
        "kernel_banded_vs_reference": 3.1,
        "kernel_batch_vs_reference": 9.4,
        "executor_vs_naive": 6.2,
        "qgram_vs_naive": 118.5,
        "verify_vs_scalar": 6.0,
        "join_dp_reduction": 33.5,
        "scaling_4v1": 2.7,
        "join_2v1": 1.9,
        "serve_1v4": 1.2
      }
    }

Every ratio is a dimensionless speedup (bigger is better), which makes
reports comparable across machines of different absolute speed.  The
pool ratios are the exception to "always enforce": running 4 workers
on a box with fewer than 4 CPUs *cannot* beat 1 worker, so the select
scaling ratio applies only when :func:`scaling_enforced` says the
hardware can express it, and ``join_2v1`` (the cross-language join on
a 2-worker pool against inline) only when :func:`join_pool_enforced`
does, and ``serve_1v4`` (served selects on the default one-thread pool
against 4 threads) only when :func:`serve_threads_enforced` does — the
report records ``cpu_count`` precisely so the gate stays honest on
small runners.

Two kinds of check:

* **floors** (:func:`check_floors`) — absolute minimums a single run
  must clear, deliberately lax so only real regressions trip them;
* **baseline comparison** (:func:`compare`) — a fresh run must stay
  within a jitter tolerance of the committed ``BENCH_baseline.json``
  ratios, which catches slow drift long before a floor would.
"""

from __future__ import annotations

#: Smoke-scale floors (1,500-row catalog; lax on purpose — CI jitter
#: must not trip them, only real regressions).
SMOKE_KERNEL_FLOOR = 1.5
SMOKE_EXECUTOR_FLOOR = 2.0
#: q-gram strategy (columnar postings + the batch verifier) over the
#: naive scan, classical costs; measured ~120x on a 2-CPU host.
SMOKE_QGRAM_FLOOR = 10.0
#: ``PhonemeStore.verify`` over ~250-key serve-sized batches against
#: per-key scalar ``edit_distance_within``, clustered costs.
SMOKE_VERIFY_FLOOR = 1.5
#: The cross-language join at the paper's clustered costs
#: (``MatchConfig()``): pairs the length filter keeps over pairs the DP
#: runs on, i.e. what the class-count bound prunes.  A count, not a
#: timing; measured ~33x on the smoke catalog and ~24x on the 1,500-row
#: end-to-end join table.
SMOKE_JOIN_PRUNING_FLOOR = 5.0

#: Acceptance-scale floors (200k-row catalog, the paper's Section 5
#: viability bar; enforced by ``benchmarks/bench_parallel_scaling.py``).
ACCEPTANCE_KERNEL_FLOOR = 20.0
ACCEPTANCE_SCALING_FLOOR = 3.0

#: The worker count whose scaling ratio reports measure, and the
#: hardware-permitting minimum: N workers must at least beat 1 worker.
SCALING_WORKERS = 4
SCALING_BEAT_FLOOR = 1.0

#: Below this catalog size a query finishes faster than pool dispatch
#: amortizes, so the scaling ratio is recorded but not enforced.
SCALING_MIN_ROWS = 10_000

#: The pool size of the cross-language join ratio: inline join time
#: over the join's time on this many workers.  A join amortizes one
#: dispatch over the whole triangle, so it is enforced at smoke scale.
JOIN_POOL_WORKERS = 2
JOIN_POOL_KEY = f"join_{JOIN_POOL_WORKERS}v1"

#: The served-select ratio: the 4-thread pool's best time over the
#: default pool's on the same closed-loop selects.  Engine threads
#: contend for the GIL only where two of them can run at once, so it
#: is enforced on runs with at least :data:`SERVE_THREADS_MIN_CPUS`.
SERVE_THREADS_WORKERS = 4
SERVE_THREADS_KEY = f"serve_1v{SERVE_THREADS_WORKERS}"
SERVE_THREADS_MIN_CPUS = 2

#: Allowed fractional drop of a fresh ratio below its baseline before
#: the gate fails (timing jitter on shared CI runners is real).
DEFAULT_TOLERANCE = 0.35

#: Ratio-key -> absolute floor, applied by ``check_floors`` at smoke
#: scale.  The scaling ratio is handled separately (hardware-gated).
SMOKE_FLOORS = {
    "kernel_banded_vs_reference": SMOKE_KERNEL_FLOOR,
    "executor_vs_naive": SMOKE_EXECUTOR_FLOOR,
    "qgram_vs_naive": SMOKE_QGRAM_FLOOR,
    "verify_vs_scalar": SMOKE_VERIFY_FLOOR,
    "join_dp_reduction": SMOKE_JOIN_PRUNING_FLOOR,
}

_SCALING_KEY = f"scaling_{SCALING_WORKERS}v1"


def scaling_enforced(report: dict) -> bool:
    """Can this report's run express multi-worker scaling at all?

    True when the recorded ``cpu_count`` is at least the worker count
    the scaling ratio measured *and* the catalog was big enough for a
    query to outlast pool dispatch.  Otherwise the ratio is still
    *recorded* (honesty) but never *enforced* (physics).
    """
    cpus = int(report.get("cpu_count") or 0)
    workers = int(report.get("scaling_workers") or SCALING_WORKERS)
    rows = int(report.get("rows") or 0)
    return cpus >= workers and rows >= SCALING_MIN_ROWS


def join_pool_enforced(report: dict) -> bool:
    """Can this report's run express the pooled join's speedup?  True
    when the recorded ``cpu_count`` covers :data:`JOIN_POOL_WORKERS`."""
    return int(report.get("cpu_count") or 0) >= JOIN_POOL_WORKERS


def serve_threads_enforced(report: dict) -> bool:
    """Can this report's run express GIL contention between engine
    threads?  True when the recorded ``cpu_count`` reaches
    :data:`SERVE_THREADS_MIN_CPUS`."""
    return int(report.get("cpu_count") or 0) >= SERVE_THREADS_MIN_CPUS


def check_floors(
    report: dict, floors: dict[str, float] | None = None
) -> list[str]:
    """Absolute-floor failures for one report (empty list = pass)."""
    if floors is None:
        floors = SMOKE_FLOORS
    ratios = report.get("ratios", {})
    failures = []
    for key, floor in floors.items():
        value = ratios.get(key)
        if value is None:
            failures.append(f"missing ratio {key!r} (floor {floor}x)")
        elif value < floor:
            failures.append(
                f"{key} = {value:.2f}x below its {floor}x floor"
            )
    if scaling_enforced(report):
        scaling = ratios.get(_SCALING_KEY)
        if scaling is None:
            failures.append(
                f"missing ratio {_SCALING_KEY!r} "
                f"(cpu_count={report.get('cpu_count')} can express it)"
            )
        elif scaling < SCALING_BEAT_FLOOR:
            failures.append(
                f"{_SCALING_KEY} = {scaling:.2f}x: "
                f"{report.get('scaling_workers', SCALING_WORKERS)} "
                f"workers must beat 1 worker on "
                f"{report.get('cpu_count')} CPUs"
            )
    return failures


def compare(
    baseline: dict,
    fresh: dict,
    tolerance: float = DEFAULT_TOLERANCE,
) -> list[str]:
    """Regression messages for a fresh report vs the baseline.

    Every ratio present in the baseline must exist in the fresh report
    and stay at or above ``baseline * (1 - tolerance)``.  Pool ratios
    are exempted when the fresh run's hardware cannot express them
    (:func:`scaling_enforced`, :func:`join_pool_enforced`,
    :func:`serve_threads_enforced`).  Reports
    over different row counts are not comparable and fail outright.
    """
    failures = []
    base_rows = baseline.get("rows")
    fresh_rows = fresh.get("rows")
    if base_rows != fresh_rows:
        failures.append(
            f"row-count mismatch: baseline ran {base_rows} rows, "
            f"fresh ran {fresh_rows} — reports are not comparable"
        )
        return failures
    enforce_scaling = scaling_enforced(fresh)
    fresh_ratios = fresh.get("ratios", {})
    for key, base_value in sorted(baseline.get("ratios", {}).items()):
        if key.startswith("scaling_") and not enforce_scaling:
            continue
        if key == JOIN_POOL_KEY and not join_pool_enforced(fresh):
            continue
        if key == SERVE_THREADS_KEY and not serve_threads_enforced(fresh):
            continue
        fresh_value = fresh_ratios.get(key)
        if fresh_value is None:
            failures.append(
                f"fresh report is missing ratio {key!r} "
                f"(baseline {base_value:.2f}x)"
            )
            continue
        allowed = base_value * (1.0 - tolerance)
        if fresh_value < allowed:
            failures.append(
                f"{key} regressed: {fresh_value:.2f}x < "
                f"{allowed:.2f}x (baseline {base_value:.2f}x "
                f"- {tolerance:.0%} tolerance)"
            )
    failures.extend(check_floors(fresh))
    return failures
