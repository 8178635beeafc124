"""Parallel executor scaling: a rows × workers sweep with kernel floors.

The paper's Table 1 establishes that the naive UDF scan is the
bottleneck; this bench measures how far the sharded vectorized executor
(`repro.parallel`) moves it.  For every (rows, workers) cell it runs a
seeded query battery through both :class:`NaiveUdfStrategy` and
:class:`ParallelStrategy`, records per-query p50/p95 latency, asserts
the two return *identical* match sets, and reports the speedup.  A
second section times the banded scalar kernel
(``edit_distance_within``) against the reference full DP on the same
seeded pair sample.

Results land in ``results/parallel_scaling.txt`` (+ ``.json``) and in
``BENCH_parallel.json`` at the repo root — the artifact the perf gate
and the acceptance criteria read.

Scale knobs (all comma-lists / ints, all seeded by ``--seed``):

* ``REPRO_BENCH_PARALLEL_ROWS``     catalog sizes        (default ``500,2000``)
* ``REPRO_BENCH_PARALLEL_WORKERS``  pool sizes           (default ``1,2,4``)
* ``REPRO_BENCH_PARALLEL_QUERIES``  battery size         (default ``8``)
* ``REPRO_BENCH_PARALLEL_REPEATS``  timings per query    (default ``2``)
* ``REPRO_BENCH_PARALLEL_KERNEL_PAIRS``  kernel sample   (default ``400``)

The acceptance-scale run (paper-sized catalog) is::

    REPRO_BENCH_PARALLEL_ROWS=200000 REPRO_BENCH_PARALLEL_WORKERS=1,4 \
        python -m pytest benchmarks/bench_parallel_scaling.py -s

at which size the sweep additionally asserts the acceptance floors from
:mod:`repro.perf`: the vectorized batch kernel ≥ 20× over the reference
DP, and — on machines whose ``cpu_count`` can express it — the 4-worker
executor ≥ 3× the 1-worker executor.  ``cpu_count`` is recorded in the
output JSON so a reader always knows whether the scaling number was
physically expressible on the box that produced it.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import numpy as np

from repro import perf
from repro.core import LexEqualMatcher, NaiveUdfStrategy, NameCatalog
from repro.core.sources import _encode
from repro.data.generator import generate_performance_dataset
from repro.evaluation.report import format_table, seconds
from repro.matching.batch import batch_edit_distances_within_encoded
from repro.matching.editdist import edit_distance, edit_distance_within
from repro.parallel import EncodedNameTable, ParallelStrategy

from conftest import PERF_CONFIG, bench_rng, save_result

ROOT = Path(__file__).resolve().parent.parent

#: Acceptance scale: the paper-sized catalog at which the repro.perf
#: acceptance floors are asserted (smoke floors hold at any size).
ACCEPTANCE_ROWS = 200_000


def _ints(env: str, default: str) -> list[int]:
    return [int(part) for part in os.environ.get(env, default).split(",")]


ROW_COUNTS = _ints("REPRO_BENCH_PARALLEL_ROWS", "500,2000")
WORKER_COUNTS = _ints("REPRO_BENCH_PARALLEL_WORKERS", "1,2,4")
QUERY_COUNT = int(os.environ.get("REPRO_BENCH_PARALLEL_QUERIES", "8"))
REPEATS = int(os.environ.get("REPRO_BENCH_PARALLEL_REPEATS", "2"))
KERNEL_PAIRS = int(
    os.environ.get("REPRO_BENCH_PARALLEL_KERNEL_PAIRS", "400")
)


def _build_catalog(lexicon, rows: int) -> NameCatalog:
    catalog = NameCatalog(LexEqualMatcher(PERF_CONFIG))
    for item in generate_performance_dataset(lexicon, rows):
        catalog.add(item.name, item.language, ipa=item.ipa)
    return catalog


def _query_battery(catalog: NameCatalog) -> list[str]:
    """Seeded queries: stored English names (guaranteed hits) + a miss."""
    rng = bench_rng(salt=7)
    english = [
        record.name
        for record in catalog.records()
        if record.language == "english"
    ]
    count = min(QUERY_COUNT - 1, len(english))
    return rng.sample(english, count) + ["Zzyzx"]


def _time_select(strategy, queries: list[str]):
    """Per-query wall latencies plus the match-id sets (for equivalence)."""
    latencies: list[float] = []
    results: dict[str, list[int]] = {}
    for query in queries:
        for _ in range(REPEATS):
            start = time.perf_counter()
            matched = strategy.select(query)
            latencies.append(time.perf_counter() - start)
        results[query] = [record.id for record in matched]
    return latencies, results


def _stats(latencies: list[float]) -> dict:
    arr = np.array(latencies)
    return {
        "p50_ms": float(np.percentile(arr, 50) * 1e3),
        "p95_ms": float(np.percentile(arr, 95) * 1e3),
        "mean_ms": float(arr.mean() * 1e3),
        "total_s": float(arr.sum()),
    }


def _sweep_cell(catalog, queries, workers, naive):
    with ParallelStrategy(catalog, workers=workers) as strategy:
        latencies, results = _time_select(strategy, queries)
    assert results == naive["results"], f"divergence at workers={workers}"
    cell = _stats(latencies)
    cell["workers"] = workers
    cell["speedup_vs_naive"] = naive["stats"]["mean_ms"] / cell["mean_ms"]
    return cell


def _kernel_floor(catalog) -> dict:
    """Banded ``edit_distance_within`` vs the reference full DP."""
    rng = bench_rng(salt=13)
    costs = catalog.matcher.costs
    threshold = catalog.config.threshold
    ids = rng.sample(range(len(catalog)), min(len(catalog), 600))
    strings = [catalog.phonemes_of(i) for i in ids]
    pairs = [
        (rng.choice(strings), rng.choice(strings))
        for _ in range(KERNEL_PAIRS)
    ]
    budgets = [threshold * min(len(a), len(b)) for a, b in pairs]

    start = time.perf_counter()
    reference = [edit_distance(a, b, costs) for a, b in pairs]
    ref_seconds = time.perf_counter() - start

    start = time.perf_counter()
    banded = [
        edit_distance_within(a, b, budget, costs)
        for (a, b), budget in zip(pairs, budgets)
    ]
    banded_seconds = time.perf_counter() - start

    # The timing shortcut must not change a single decision.
    for full, within, budget in zip(reference, banded, budgets):
        assert within == (full if full <= budget else None)

    return {
        "pairs": len(pairs),
        "reference_s": ref_seconds,
        "banded_s": banded_seconds,
        "speedup": ref_seconds / max(banded_seconds, 1e-9),
    }


def _batch_kernel(catalog) -> dict:
    """The vectorized all-candidates kernel vs the reference DP.

    The reference is timed per pair on a seeded sample (running it over
    the full 200k-row table would take minutes for no extra signal);
    the batch kernel is timed on its production shape — one query
    against *every* row at once — and the speedup is the per-pair
    ratio.  A sample of the batch results is re-checked against the
    reference so the timing can never vouch for a diverged kernel.
    """
    rng = bench_rng(salt=17)
    costs = catalog.matcher.costs
    threshold = catalog.config.threshold
    table = EncodedNameTable.from_catalog(catalog)
    sample = rng.sample(range(len(catalog)), min(len(catalog), 1500))
    query_id = sample[0]
    query = catalog.phonemes_of(query_id)
    q = np.frombuffer(_encode(query), np.uint8).astype(np.int64)
    budgets = threshold * np.minimum(len(q), table.lens)

    start = time.perf_counter()
    reference = [
        edit_distance(query, catalog.phonemes_of(i), costs)
        for i in sample
    ]
    ref_per_pair = (time.perf_counter() - start) / len(sample)

    start = time.perf_counter()
    dists = batch_edit_distances_within_encoded(
        q, table.codes, table.offsets, table.encoded, budgets
    )
    batch_per_pair = (time.perf_counter() - start) / len(table)

    for i, full in zip(sample, reference):
        expected = full if full <= budgets[i] else np.inf
        assert dists[i] == expected, (
            f"batch kernel diverged from reference DP at row {i}"
        )

    return {
        "rows": len(table),
        "sample_pairs": len(sample),
        "reference_us_per_pair": ref_per_pair * 1e6,
        "batch_us_per_pair": batch_per_pair * 1e6,
        "speedup": ref_per_pair / max(batch_per_pair, 1e-12),
    }


def test_parallel_scaling(benchmark, lexicon):
    sweep = []
    table_rows = []
    kernel = None
    batch_kernel = None
    for rows in ROW_COUNTS:
        catalog = _build_catalog(lexicon, rows)
        queries = _query_battery(catalog)
        naive_lat, naive_results = _time_select(
            NaiveUdfStrategy(catalog), queries
        )
        naive = {"stats": _stats(naive_lat), "results": naive_results}
        cells = [
            _sweep_cell(catalog, queries, workers, naive)
            for workers in WORKER_COUNTS
        ]
        by_workers = {c["workers"]: c["speedup_vs_naive"] for c in cells}
        scaling = None
        if 1 in by_workers and perf.SCALING_WORKERS in by_workers:
            scaling = by_workers[perf.SCALING_WORKERS] / by_workers[1]
        sweep.append(
            {
                "rows": rows,
                "naive": naive["stats"],
                "parallel": cells,
                f"scaling_{perf.SCALING_WORKERS}v1": scaling,
            }
        )
        table_rows.append(
            [
                f"{rows}",
                "naive-udf",
                f"{naive['stats']['p50_ms']:.2f}",
                f"{naive['stats']['p95_ms']:.2f}",
                "1.0x",
            ]
        )
        for cell in cells:
            table_rows.append(
                [
                    f"{rows}",
                    f"parallel w={cell['workers']}",
                    f"{cell['p50_ms']:.2f}",
                    f"{cell['p95_ms']:.2f}",
                    f"{cell['speedup_vs_naive']:.1f}x",
                ]
            )
        # The kernel samples only need one catalog; use the largest.
        if rows == max(ROW_COUNTS):
            kernel = _kernel_floor(catalog)
            batch_kernel = _batch_kernel(catalog)

    text = format_table(
        ["Rows", "Strategy", "p50 ms", "p95 ms", "Speedup vs naive"],
        table_rows,
        title=(
            "Parallel executor scaling "
            f"({QUERY_COUNT} queries x {REPEATS} repeats per cell; "
            f"banded kernel {kernel['speedup']:.1f}x, batch kernel "
            f"{batch_kernel['speedup']:.1f}x over reference DP; "
            f"{os.cpu_count()} CPUs)"
        ),
    )
    data = {
        "row_counts": ROW_COUNTS,
        "worker_counts": WORKER_COUNTS,
        "queries": QUERY_COUNT,
        "repeats": REPEATS,
        "threshold": PERF_CONFIG.threshold,
        "cpu_count": os.cpu_count(),
        "scaling_workers": perf.SCALING_WORKERS,
        "sweep": sweep,
        "kernel": kernel,
        "batch_kernel": batch_kernel,
    }
    save_result("parallel_scaling.txt", text, data)
    (ROOT / "BENCH_parallel.json").write_text(
        json.dumps(data, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"[saved to {ROOT / 'BENCH_parallel.json'}]")

    # Smoke-scale floors: some parallel configuration clearly beats the
    # naive scan at every size, and the banded kernel never regresses
    # below the reference DP.
    for entry in sweep:
        best = max(c["speedup_vs_naive"] for c in entry["parallel"])
        assert best > 2.0, f"parallel win collapsed at rows={entry['rows']}"
    assert kernel["speedup"] > 1.2

    # Acceptance-scale floors (repro.perf): at the paper-sized catalog
    # the batch kernel is >= 20x the reference DP unconditionally, and
    # N workers are >= 3x over 1 worker when the hardware can express
    # it (a box with fewer CPUs than workers records the ratio but
    # cannot be asked to clear it).
    scaling_key = f"scaling_{perf.SCALING_WORKERS}v1"
    can_scale = (os.cpu_count() or 1) >= perf.SCALING_WORKERS
    for entry in sweep:
        if entry["rows"] < ACCEPTANCE_ROWS:
            continue
        assert batch_kernel["speedup"] >= perf.ACCEPTANCE_KERNEL_FLOOR, (
            f"batch kernel {batch_kernel['speedup']:.1f}x below the "
            f"{perf.ACCEPTANCE_KERNEL_FLOOR}x acceptance floor"
        )
        scaling = entry.get(scaling_key)
        if scaling is not None and can_scale:
            assert scaling >= perf.ACCEPTANCE_SCALING_FLOOR, (
                f"{scaling_key} = {scaling:.2f}x below the "
                f"{perf.ACCEPTANCE_SCALING_FLOOR}x acceptance floor "
                f"on {os.cpu_count()} CPUs"
            )
        elif scaling is not None:
            print(
                f"[{scaling_key} = {scaling:.2f}x recorded, not "
                f"enforced: {os.cpu_count()} CPUs < "
                f"{perf.SCALING_WORKERS} workers]"
            )

    catalog = _build_catalog(lexicon, min(ROW_COUNTS))
    queries = _query_battery(catalog)
    with ParallelStrategy(catalog, workers=WORKER_COUNTS[0]) as strategy:
        benchmark.pedantic(
            lambda: strategy.select(queries[0]), rounds=3, iterations=1
        )


def test_seeded_battery_is_reproducible(lexicon):
    """Same seed => same workload; the sweep is measuring fixed queries."""
    catalog = _build_catalog(lexicon, min(ROW_COUNTS))
    assert _query_battery(catalog) == _query_battery(catalog)
