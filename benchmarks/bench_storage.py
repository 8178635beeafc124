"""Durable storage: cold build vs reopen, and planner-vs-forced latency.

Two claims under test (ISSUE 7 acceptance):

1. **Instant restarts** — reopening a checkpointed data directory
   attaches the persisted heap, B+ trees and phonetic accelerator
   snapshot instead of re-deriving phonemes for every row, so a cold
   reopen must beat the from-scratch build by a wide margin (≥10× at
   the paper-scale 200k-row run; ≥3× even at smoke scale, where fixed
   per-open costs weigh more).  The reopened accelerator must return
   candidate sets identical to the freshly built one.

2. **Cost-based choice** — after ``ANALYZE``, the reopened ``auto``
   accelerator picks a non-naive strategy on the seeded lexicon
   without any ``--strategy`` flag, and the measured latency of its
   pick (``accelerator.last_method``) is set against every forced
   Strategy-API strategy's on the same queries.

A run at ``ACCEPTANCE_ROWS`` or more writes ``results/storage.txt``
(+ ``.json``) and ``BENCH_storage.json`` at the repo root, the
committed paper-scale record; a scaled-down run (the CI storage-smoke
job's) writes only the git-ignored ``results/storage.json``.

Scale knobs (seeded by ``--seed`` / ``REPRO_BENCH_SEED``):

* ``REPRO_BENCH_STORAGE_ROWS``     lexicon size      (default ``2000``)
* ``REPRO_BENCH_STORAGE_QUERIES``  battery size      (default ``6``)

The acceptance-scale run (paper-sized catalog) is::

    REPRO_BENCH_STORAGE_ROWS=200000 \
        python -m pytest benchmarks/bench_storage.py -s
"""

from __future__ import annotations

import json
import os
import statistics
import tempfile
import time
from pathlib import Path

from repro.core import (
    LexEqualMatcher,
    NaiveUdfStrategy,
    NameCatalog,
    PhoneticIndexStrategy,
    QGramStrategy,
)
from repro.core.engine import create_phonetic_accelerator
from repro.data.generator import generate_performance_dataset
from repro.data.lexicon import build_lexicon
from repro.minidb.schema import Column
from repro.minidb.values import LangText, SqlType
from repro.storage import open_database

from conftest import PERF_CONFIG, bench_rng, save_metrics, save_result

ROOT = Path(__file__).resolve().parent.parent

#: Paper-scale row count at which the ≥10× reopen floor is asserted.
ACCEPTANCE_ROWS = 200_000

ROWS = int(os.environ.get("REPRO_BENCH_STORAGE_ROWS", "2000"))
QUERY_COUNT = int(os.environ.get("REPRO_BENCH_STORAGE_QUERIES", "6"))

#: The Strategy-API strategy forced for each method ``auto`` can pick.
FORCED = {
    "naive": NaiveUdfStrategy,
    "qgram": QGramStrategy,
    "index": PhoneticIndexStrategy,
}

LEXEQUAL_SQL = (
    "SELECT name FROM names WHERE name LEXEQUAL '{query}' THRESHOLD 0.25"
)


def _dataset():
    return list(generate_performance_dataset(build_lexicon(), ROWS))


def _battery(items) -> list[str]:
    rng = bench_rng(salt=11)
    english = [it.name for it in items if it.language == "english"]
    count = min(QUERY_COUNT - 1, len(english))
    return rng.sample(english, count) + ["Zzyzx"]


def _build_durable(data_dir: str, items, matcher) -> float:
    """From-scratch build: rows + accelerator + ANALYZE + checkpoint."""
    start = time.perf_counter()
    db = open_database(data_dir, matcher=matcher, sync=False)
    db.create_table(
        "names",
        [
            Column("id", SqlType.INTEGER, nullable=False),
            Column("name", SqlType.LANGTEXT, nullable=False),
            Column("language", SqlType.TEXT, nullable=False),
        ],
    )
    with db.transaction():
        for i, item in enumerate(items):
            db.insert(
                "names",
                (i, LangText(item.name, item.language), item.language),
            )
    # allow_lossy so "auto" also maintains the grouped-key source: both
    # sources' states persist in the accelerator's .idx snapshot.
    create_phonetic_accelerator(
        db, "names", "name", matcher, method="auto", allow_lossy=True
    )
    db.analyze()
    db.checkpoint()
    elapsed = time.perf_counter() - start
    db.storage.close()
    return elapsed


def test_storage_cold_reopen_and_planner():
    matcher = LexEqualMatcher(PERF_CONFIG)
    items = _dataset()
    queries = _battery(items)
    data = {"rows": ROWS, "queries": len(queries)}

    with tempfile.TemporaryDirectory(prefix="bench-storage-") as tmp:
        data_dir = os.path.join(tmp, "db")
        build_s = _build_durable(data_dir, items, matcher)

        # Two process-cold reopens, best kept: the build above took a
        # minute of CPU, so a single reopen sample is at the mercy of
        # whatever else the host is doing for those few seconds.
        reopen_samples = []
        db = None
        for _ in range(2):
            if db is not None:
                db.storage.close()
            start = time.perf_counter()
            db = open_database(data_dir, matcher=matcher)
            reopen_samples.append(time.perf_counter() - start)
        reopen_s = min(reopen_samples)
        speedup = build_s / reopen_s if reopen_s else float("inf")
        data["build_s"] = build_s
        data["reopen_s"] = reopen_s
        data["reopen_samples"] = reopen_samples
        data["reopen_speedup"] = speedup

        accelerator = db.accelerator_for("names", "name")
        assert accelerator is not None, "accelerator not re-attached"

        planner_ms = []
        chosen = {}
        for query in queries:
            start = time.perf_counter()
            result = db.execute(LEXEQUAL_SQL.format(query=query))
            planner_ms.append((time.perf_counter() - start) * 1e3)
            chosen[query] = accelerator.last_method or "naive"
            assert result.rows is not None
        data["planner"] = {
            "mean_ms": statistics.fmean(planner_ms),
            "chosen": chosen,
        }
        # ANALYZE-driven planning must leave naive behind once the
        # lexicon is big enough that a scan visibly loses.
        if ROWS >= 1000:
            assert all(m != "naive" for m in chosen.values()), chosen
        db.storage.close()

    # Auto's pick vs forced: the same lexicon in a NameCatalog, every
    # strategy ``auto`` can pick timed on each query, and the time of
    # the one it picked set against the measured best.
    catalog = NameCatalog(matcher)
    for item in items:
        catalog.add(item.name, item.language, ipa=item.ipa)
    forced_ms: dict[str, list[float]] = {name: [] for name in FORCED}
    strategies = {name: cls(catalog) for name, cls in FORCED.items()}
    for query in queries:
        for name, strategy in strategies.items():
            start = time.perf_counter()
            strategy.select(query)
            forced_ms[name].append((time.perf_counter() - start) * 1e3)
    choices = [chosen[query] for query in queries]
    chosen_ms = [forced_ms[name][i] for i, name in enumerate(choices)]
    per_strategy = {
        name: statistics.fmean(times) for name, times in forced_ms.items()
    }
    best = min(per_strategy.values())
    chosen_mean = statistics.fmean(chosen_ms)
    data["strategies_ms"] = per_strategy
    data["chosen_ms"] = chosen_mean
    data["chosen_vs_best"] = chosen_mean / best if best else 1.0
    data["choices"] = choices

    floor = 10.0 if ROWS >= ACCEPTANCE_ROWS else 3.0
    assert speedup >= floor, (
        f"cold reopen speedup {speedup:.1f}x under the {floor}x floor "
        f"(build {build_s:.2f}s, reopen {reopen_s:.2f}s, {ROWS} rows)"
    )

    lines = [
        f"Durable storage ({ROWS} rows, {len(queries)} queries)",
        f"  cold build : {build_s * 1e3:9.1f} ms",
        f"  cold reopen: {reopen_s * 1e3:9.1f} ms   ({speedup:.1f}x)",
        "  forced strategy latency (mean ms):",
    ]
    for name, mean in sorted(per_strategy.items(), key=lambda kv: kv[1]):
        lines.append(f"    {name:14s} {mean:9.2f}")
    lines.append(
        f"  cost-based choice: {chosen_mean:.2f} ms "
        f"({data['chosen_vs_best']:.2f}x of best; {', '.join(choices)})"
    )
    text = "\n".join(lines)
    if ROWS >= ACCEPTANCE_ROWS:
        save_result("storage.txt", text, data)
        (ROOT / "BENCH_storage.json").write_text(
            json.dumps(data, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        print(f"[saved to {ROOT / 'BENCH_storage.json'}]")
    else:
        # A scaled-down run leaves the committed paper-scale record be.
        save_metrics("storage", data)
        print(f"\n{text}\n[saved to results/storage.json]")
