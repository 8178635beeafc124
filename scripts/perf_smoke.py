#!/usr/bin/env python
"""CI perf smoke: the fast kernels must stay fast and stay exact.

A scaled-down, assert-only version of
``benchmarks/bench_parallel_scaling.py`` that runs in seconds and fails
the build when either regression appears:

* **divergence** — the banded scalar kernel, the vectorized batch
  kernel, or the parallel executor returns anything other than the
  reference DP's distances and match sets, or the pooled join other
  pairs than the inline join;
* **lost speedup** — the banded kernel stops beating the reference DP,
  the parallel executor stops beating the sequential naive scan, the
  q-gram strategy (columnar postings + the one verifier) stops beating
  it, or the one verifier (``PhonemeStore.verify`` over its stored
  code columns) stops beating per-key scalar rechecks;
* **lost pruning** — the batch kernel's class-count bound stops keeping
  the cross-language join's DP off most length-filter survivors at the
  paper's clustered costs, or the class counts stored at insert send a
  different number of join pairs to the DP than a recount from the
  codes does (pair counts, not timings);
* **served answers** — a ``BackgroundServer`` on the default one-thread
  pool and one on 4 threads return different rows for the same
  closed-loop selects.

The floors come from :mod:`repro.perf` — the single source shared with
``scripts/perf_compare.py`` and the acceptance benchmark — and are
deliberately lax at this scale (1.5x kernel, 2x executor, 10x q-gram,
1.5x verifier, 5x join pruning on a 1,500-row catalog) so the gate
only trips on real regressions, not CI jitter.  The acceptance-scale
floors (20x kernel, 3x scaling at 200k rows) are enforced by the
benchmark, not here.

Besides asserting, the run writes a JSON report of its speedup ratios
(``--out``); ``scripts/perf_compare.py`` diffs that report against the
committed ``BENCH_baseline.json`` to catch slow drift that stays above
the lax floors.  The report records ``cpu_count`` because the
multi-worker ratios are only meaningful (and only enforced) on
machines with at least that many CPUs: ``scaling_4v1`` (selects),
``join_2v1``, the clustered-cost join inline over the same join on a
2-worker pool, the shape the ``join-crossscript-1500`` workload runs,
and ``serve_1v4``, served selects on 4 engine threads over the same
selects on the default pool, enforced on 2+ CPUs, where the threads
contend for the GIL.

Environment knobs: ``REPRO_PERF_SMOKE_ROWS`` (default 1500),
``REPRO_PERF_SMOKE_SEED`` (default 20040314).
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import json
import os
import random
import sys
import threading
import time

sys.path.insert(
    0, os.path.join(os.path.dirname(__file__), "..", "src")
)

import numpy as np

from repro import obs, perf
from repro.core import (
    LexEqualMatcher,
    MatchConfig,
    NaiveUdfStrategy,
    NameCatalog,
    QGramStrategy,
)
from repro.core.engine import create_phonetic_accelerator
from repro.core.integration import install_lexequal
from repro.core.sources import PhonemeStore
from repro.data.generator import generate_performance_dataset
from repro.data.lexicon import build_lexicon
from repro.matching.batch import EncodedCosts, batch_edit_distances_within
from repro.matching.editdist import edit_distance, edit_distance_within
from repro.minidb.catalog import Database
from repro.minidb.schema import Column
from repro.minidb.values import SqlType
from repro.parallel import ParallelStrategy
from repro.parallel.executor import _join_shard_on
from repro.parallel.table import EncodedNameTable
from repro.server import BackgroundServer, LexEqualClient, QueryService

ROWS = int(os.environ.get("REPRO_PERF_SMOKE_ROWS", "1500"))
SEED = int(os.environ.get("REPRO_PERF_SMOKE_SEED", "20040314"))
PAIRS = 400
QUERIES = 6
#: Serve-sized verifier batches: candidate keys per query (the
#: ``serve-mixed-600`` q-gram source leaves ~250), and queries timed.
VERIFY_KEYS = 250
VERIFY_QUERIES = 12
#: Alternating inline/pooled timings of the clustered-cost join.
JOIN_ROUNDS = 7
#: The served-select check: table rows (serve-sized), closed-loop
#: clients per server, selects each client sends per round, and the
#: alternating default-pool/4-thread rounds whose best times compare.
SERVE_ROWS = 600
SERVE_CLIENTS = 2
SERVE_REQUESTS = 60
SERVE_ROUNDS = 7


#: The kernel and strategy checks' classical costs.
CLASSICAL = MatchConfig(
    threshold=0.25,
    intra_cluster_cost=1.0,
    weak_indel_cost=1.0,
    vowel_cross_cost=1.0,
)


def build_catalog(items, config: MatchConfig = CLASSICAL) -> NameCatalog:
    catalog = NameCatalog(LexEqualMatcher(config))
    for item in items:
        catalog.add(item.name, item.language, ipa=item.ipa)
    return catalog


def check_kernels(catalog: NameCatalog) -> tuple[float, float]:
    """Banded + batch kernels: exact agreement, banded speedup floor.

    Returns ``(banded_vs_reference, batch_vs_reference)`` speedups.
    """
    rng = random.Random(SEED)
    costs = catalog.matcher.costs
    threshold = catalog.config.threshold
    strings = [
        catalog.phonemes_of(i)
        for i in rng.sample(range(len(catalog)), min(len(catalog), 600))
    ]
    pairs = [
        (rng.choice(strings), rng.choice(strings)) for _ in range(PAIRS)
    ]
    budgets = [threshold * min(len(a), len(b)) for a, b in pairs]

    start = time.perf_counter()
    reference = [edit_distance(a, b, costs) for a, b in pairs]
    ref_s = time.perf_counter() - start

    start = time.perf_counter()
    banded = [
        edit_distance_within(a, b, budget, costs)
        for (a, b), budget in zip(pairs, budgets)
    ]
    banded_s = time.perf_counter() - start

    for (a, b), full, within, budget in zip(
        pairs, reference, banded, budgets
    ):
        expected = full if full <= budget else None
        if within != expected:
            raise AssertionError(
                f"banded kernel diverged on {a} vs {b}: "
                f"{within!r} != {expected!r} (budget {budget})"
            )

    # The batch kernel against the same sample, one query over all
    # candidates at once (its production shape in the executor).
    symbols = sorted({s for string in strings for s in string})
    encoded = EncodedCosts(costs, symbols)
    query = pairs[0][0]
    candidates = [b for _, b in pairs]
    batch_budgets = np.array(
        [threshold * min(len(query), len(c)) for c in candidates]
    )
    start = time.perf_counter()
    got = batch_edit_distances_within(
        query, candidates, encoded, batch_budgets
    )
    batch_s = time.perf_counter() - start
    for value, cand, budget in zip(got, candidates, batch_budgets):
        full = edit_distance(query, cand, costs)
        expected = full if full <= budget else np.inf
        if value != expected:
            raise AssertionError(
                f"batch kernel diverged on {query} vs {cand}: "
                f"{value!r} != {expected!r}"
            )

    banded_speedup = ref_s / max(banded_s, 1e-9)
    batch_speedup = ref_s / max(batch_s, 1e-9)
    print(
        f"kernel: {PAIRS} pairs, reference {ref_s * 1e3:.1f} ms, "
        f"banded {banded_s * 1e3:.1f} ms -> {banded_speedup:.1f}x, "
        f"batch {batch_s * 1e3:.1f} ms -> {batch_speedup:.1f}x"
    )
    if banded_speedup < perf.SMOKE_KERNEL_FLOOR:
        raise AssertionError(
            f"banded kernel lost its speedup: {banded_speedup:.2f}x < "
            f"{perf.SMOKE_KERNEL_FLOOR}x floor"
        )
    return banded_speedup, batch_speedup


def check_verifier(catalog: NameCatalog) -> float:
    """The one verifier: identical keys to per-key scalar rechecks.

    Each query's candidates are the :data:`VERIFY_KEYS` stored strings
    nearest it in length (what a length filter leaves), verified under
    the default clustered costs.  Returns ``verify_vs_scalar``, the
    scalar loop's wall time over ``PhonemeStore.verify``'s.
    """
    config = MatchConfig()
    costs = config.cost_model()
    threshold = config.threshold
    store = PhonemeStore(costs)
    store.update((key, catalog.phonemes_of(key)) for key in catalog.ids())
    rng = random.Random(SEED + 2)
    cases = []
    for key in rng.sample(catalog.ids(), VERIFY_QUERIES):
        query = store[key]
        nearest = sorted(store, key=lambda k: abs(len(store[k]) - len(query)))
        cases.append((query, sorted(nearest[:VERIFY_KEYS])))
    store.verify(*cases[0], threshold)  # cost tables built

    start = time.perf_counter()
    got = [store.verify(query, keys, threshold) for query, keys in cases]
    verify_s = time.perf_counter() - start

    start = time.perf_counter()
    expected = [
        [
            key
            for key in keys
            if edit_distance_within(
                query,
                store[key],
                threshold * min(len(query), len(store[key])),
                costs,
            )
            is not None
        ]
        for query, keys in cases
    ]
    scalar_s = time.perf_counter() - start
    if got != expected:
        raise AssertionError(
            "PhonemeStore.verify diverged from per-key scalar rechecks"
        )
    speedup = scalar_s / max(verify_s, 1e-9)
    print(
        f"verifier: {VERIFY_QUERIES} queries x {VERIFY_KEYS} keys, scalar "
        f"{scalar_s * 1e3:.1f} ms, verify {verify_s * 1e3:.1f} ms "
        f"-> {speedup:.1f}x"
    )
    return speedup


def naive_baseline(catalog: NameCatalog) -> tuple[list, dict, float]:
    """Seeded queries, the naive scan's ids for each, and its wall time."""
    rng = random.Random(SEED + 1)
    english = [
        record.name
        for record in catalog.records()
        if record.language == "english"
    ]
    queries = rng.sample(english, QUERIES - 1) + ["Zzyzx"]
    naive = NaiveUdfStrategy(catalog)
    naive.select(queries[0])  # warm caches; measure steady-state scans
    start = time.perf_counter()
    expected = {q: [r.id for r in naive.select(q)] for q in queries}
    return queries, expected, time.perf_counter() - start


def check_qgram(catalog: NameCatalog, baseline) -> float:
    """q-gram strategy: identical match sets, speedup over naive.

    Returns ``qgram_vs_naive``, the naive scan's wall time over the
    q-gram strategy's on the same queries.
    """
    queries, expected, naive_s = baseline
    strategy = QGramStrategy(catalog)
    strategy.select(queries[0])  # postings built, caches warm
    start = time.perf_counter()
    got = {q: [r.id for r in strategy.select(q)] for q in queries}
    qgram_s = time.perf_counter() - start
    if got != expected:
        raise AssertionError("q-gram strategy diverged from the naive scan")
    speedup = naive_s / max(qgram_s, 1e-9)
    print(
        f"qgram: naive {naive_s * 1e3:.0f} ms, qgram "
        f"{qgram_s * 1e3:.1f} ms -> {speedup:.1f}x"
    )
    return speedup


def check_executor(catalog: NameCatalog, baseline) -> tuple[float, float]:
    """Parallel strategy: identical match sets, executor speedup floor.

    Returns ``(best_vs_naive, scaling_4v1)`` where the scaling ratio is
    the 1-worker wall time over the 4-worker wall time (> 1 means 4
    workers win; on machines with < 4 CPUs it is recorded but not
    enforced).
    """
    queries, expected, naive_s = baseline

    best = 0.0
    seconds: dict[int, float] = {}
    for workers in (1, 2, perf.SCALING_WORKERS):
        with ParallelStrategy(catalog, workers=workers) as strategy:
            strategy.select(queries[0])  # table built, pool warmed
            start = time.perf_counter()
            got = {q: [r.id for r in strategy.select(q)] for q in queries}
            seconds[workers] = time.perf_counter() - start
        if got != expected:
            raise AssertionError(
                f"parallel executor (workers={workers}) diverged from "
                "the naive scan"
            )
        speedup = naive_s / max(seconds[workers], 1e-9)
        best = max(best, speedup)
        print(
            f"executor: workers={workers}, naive {naive_s * 1e3:.0f} ms, "
            f"parallel {seconds[workers] * 1e3:.0f} ms -> {speedup:.1f}x"
        )

    if best < perf.SMOKE_EXECUTOR_FLOOR:
        raise AssertionError(
            f"parallel executor lost its speedup: best {best:.2f}x < "
            f"{perf.SMOKE_EXECUTOR_FLOOR}x floor"
        )
    scaling = seconds[1] / max(seconds[perf.SCALING_WORKERS], 1e-9)
    return best, scaling


def check_join_pruning(catalog: NameCatalog) -> float:
    """The class-count bound on the cross-language join, clustered costs.

    Runs the inline parallel join and checks every pair it returns
    against the scalar operator, then runs the same join over the same
    table with its stored class counts dropped, so the kernel recounts
    them from the codes: both must send exactly the same pairs to the
    DP and return the same pairs.  Returns ``join_dp_reduction``: the
    pairs the length filter keeps (the DP's pairs plus the bound's
    ``matching.batch.bound_pruned``) over the pairs the DP runs on.
    Counts, not timings: they cannot flake.
    """
    costs = catalog.matcher.costs
    threshold = catalog.config.threshold
    obs.disable()
    try:
        obs.enable()
        with ParallelStrategy(catalog, workers=1) as strategy:
            pairs = strategy.join(cross_language_only=True)
            dp = strategy.last_stats.udf_calls
        pruned = obs.snapshot()["counters"].get(
            "matching.batch.bound_pruned", 0
        )
    finally:
        obs.disable()
    for a, b in pairs:
        qa, qb = catalog.phonemes_of(a.id), catalog.phonemes_of(b.id)
        budget = threshold * min(len(qa), len(qb))
        if edit_distance_within(qa, qb, budget, costs) is None:
            raise AssertionError(
                f"parallel join returned a non-matching pair ({a.id}, {b.id})"
            )
    table = EncodedNameTable.from_catalog(catalog.keyed)
    recount = copy.copy(table)
    recount.class_counts = recount.class_totals = None
    stored_run, recount_run = (
        _join_shard_on(t, 0, len(t), threshold, True)
        for t in (table, recount)
    )
    if stored_run[4] != dp or recount_run[4] != dp:
        raise AssertionError(
            f"stored class counts sent {stored_run[4]} join pairs to the "
            f"DP, a recount {recount_run[4]}, the strategy {dp}"
        )
    if not all(
        np.array_equal(a, b) for a, b in zip(stored_run[:3], recount_run[:3])
    ):
        raise AssertionError(
            "the join over stored class counts diverged from a recount"
        )
    reduction = (dp + pruned) / max(dp, 1)
    print(
        f"join pruning: {len(pairs)} pairs, {dp + pruned:.0f} after the "
        f"length filter, {dp} reach the DP -> {reduction:.1f}x"
    )
    return reduction


def check_join_pool(catalog: NameCatalog) -> float:
    """The pooled cross-language join, clustered costs: same pairs.

    Times the join inline and on a warm pool of
    :data:`repro.perf.JOIN_POOL_WORKERS` workers, alternating
    :data:`JOIN_ROUNDS` times, and checks both return the same pairs.
    Returns ``join_2v1``: the best inline time over the best pooled
    time (> 1 means the pool pays; enforced by
    ``scripts/perf_compare.py`` on runs with that many CPUs).
    """
    pool = perf.JOIN_POOL_WORKERS
    seconds: dict[int, list[float]] = {1: [], pool: []}
    strategies = {w: ParallelStrategy(catalog, workers=w) for w in seconds}
    try:
        for strategy in strategies.values():
            strategy.join()  # table built, pool warmed
        for _ in range(JOIN_ROUNDS):
            got = {}
            for workers, strategy in strategies.items():
                start = time.perf_counter()
                pairs = strategy.join()
                seconds[workers].append(time.perf_counter() - start)
                got[workers] = [(a.id, b.id) for a, b in pairs]
            if got[pool] != got[1]:
                raise AssertionError(
                    f"the join at workers={pool} diverged from the "
                    "inline join"
                )
    finally:
        for strategy in strategies.values():
            strategy.close()
    inline_s, pooled_s = min(seconds[1]), min(seconds[pool])
    ratio = inline_s / max(pooled_s, 1e-9)
    print(
        f"join pool: {len(got[1])} pairs, inline {inline_s * 1e3:.0f} ms, "
        f"workers={pool} {pooled_s * 1e3:.0f} ms -> {ratio:.2f}x"
    )
    return ratio


def serve_service(items) -> QueryService:
    """A served ``names`` table at clustered costs, ``auto`` accelerator."""
    matcher = LexEqualMatcher(MatchConfig())
    db = Database()
    install_lexequal(db, matcher)
    db.create_table(
        "names",
        [
            Column("id", SqlType.INTEGER, nullable=False),
            Column("name", SqlType.TEXT, nullable=False),
        ],
    )
    for row_id, item in enumerate(items):
        db.insert("names", (row_id, item.name))
    create_phonetic_accelerator(db, "names", "name", matcher, method="auto")
    db.analyze()
    return QueryService(db, matcher, strategy="auto")


def _drive(bg: BackgroundServer, batches: list[list[str]]):
    """Closed-loop clients, one per batch: wall seconds and answers."""
    clients = [LexEqualClient(bg.host, bg.port) for _ in batches]
    answers: list = [None] * len(batches)

    def run(i: int) -> None:
        answers[i] = [
            sorted(row[0] for row in clients[i].query(sql)["rows"])
            for sql in batches[i]
        ]

    threads = [
        threading.Thread(target=run, args=(i,)) for i in range(len(batches))
    ]
    try:
        start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        seconds = time.perf_counter() - start
    finally:
        for client in clients:
            client.close()
    if any(answer is None for answer in answers):
        raise AssertionError("a serve client failed before its last answer")
    return seconds, answers


def check_serve_threads(items) -> float:
    """Served selects on the default pool against a 4-thread pool.

    Starts one server at the default pool size and one at
    :data:`repro.perf.SERVE_THREADS_WORKERS` threads over the same
    table, drives each with :data:`SERVE_CLIENTS` closed-loop clients,
    alternating :data:`SERVE_ROUNDS` times, and checks every round's
    answers are identical.  Returns ``serve_1v4``: the 4-thread pool's
    best time over the default pool's (> 1 means the default wins;
    enforced by ``scripts/perf_compare.py`` on runs with 2+ CPUs, where
    engine threads contend for the GIL).
    """
    service = serve_service(items)
    rng = random.Random(SEED + 3)
    names = [item.name.replace("'", "''") for item in items]
    batches = [
        [
            f"SELECT id FROM names WHERE name LEXEQUAL '{name}' "
            "THRESHOLD 0.25"
            for name in rng.sample(names, SERVE_REQUESTS)
        ]
        for _ in range(SERVE_CLIENTS)
    ]
    pools = {
        "default": {},
        "threads": {"max_workers": perf.SERVE_THREADS_WORKERS},
    }
    seconds: dict[str, list[float]] = {name: [] for name in pools}
    try:
        with contextlib.ExitStack() as stack:
            servers = {
                name: stack.enter_context(BackgroundServer(service, **pool))
                for name, pool in pools.items()
            }
            for bg in servers.values():
                _, expected = _drive(bg, batches)  # caches and stats warm
            if not all(rows for answers in expected for rows in answers):
                raise AssertionError("a stored name did not match itself")
            for _ in range(SERVE_ROUNDS):
                for name, bg in servers.items():
                    elapsed, answers = _drive(bg, batches)
                    seconds[name].append(elapsed)
                    if answers != expected:
                        raise AssertionError(
                            f"served answers diverged on the {name} pool"
                        )
    finally:
        obs.disable()  # the servers enabled metrics process-wide
    default_s, threads_s = min(seconds["default"]), min(seconds["threads"])
    ratio = threads_s / max(default_s, 1e-9)
    requests = SERVE_CLIENTS * SERVE_REQUESTS
    print(
        f"serve threads: {requests} selects over {SERVE_CLIENTS} "
        f"connections, default pool {default_s * 1e3:.0f} ms, "
        f"{perf.SERVE_THREADS_WORKERS} threads {threads_s * 1e3:.0f} ms "
        f"-> {ratio:.2f}x"
    )
    return ratio


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out",
        default=None,
        help="write the speedup-ratio report as JSON to this path "
        "(consumed by scripts/perf_compare.py)",
    )
    args = parser.parse_args(argv)

    print(f"perf smoke: rows={ROWS} seed={SEED}")
    items = generate_performance_dataset(build_lexicon(), ROWS)
    catalog = build_catalog(items)
    banded, batch = check_kernels(catalog)
    verifier = check_verifier(catalog)
    baseline = naive_baseline(catalog)
    qgram = check_qgram(catalog, baseline)
    executor, scaling = check_executor(catalog, baseline)
    clustered = build_catalog(items, MatchConfig())
    join_pruning = check_join_pruning(clustered)
    join_pool = check_join_pool(clustered)
    serve_threads = check_serve_threads(
        random.Random(SEED + 4).sample(items, SERVE_ROWS)
    )
    report = {
        "rows": ROWS,
        "seed": SEED,
        "cpu_count": os.cpu_count() or 1,
        "scaling_workers": perf.SCALING_WORKERS,
        "ratios": {
            "kernel_banded_vs_reference": round(banded, 3),
            "kernel_batch_vs_reference": round(batch, 3),
            "executor_vs_naive": round(executor, 3),
            "qgram_vs_naive": round(qgram, 3),
            "verify_vs_scalar": round(verifier, 3),
            "join_dp_reduction": round(join_pruning, 3),
            f"scaling_{perf.SCALING_WORKERS}v1": round(scaling, 3),
            perf.JOIN_POOL_KEY: round(join_pool, 3),
            perf.SERVE_THREADS_KEY: round(serve_threads, 3),
        },
    }
    failures = perf.check_floors(report)
    if failures:
        for message in failures:
            print(f"FAIL: {message}")
        return 1
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"report -> {args.out}")
    print("perf smoke OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
