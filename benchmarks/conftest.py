"""Shared fixtures for the benchmark suite.

Every paper table/figure has one ``bench_*`` file.  Benchmarks print
their paper-style tables and also write them under ``results/`` (the
pytest capture machinery hides prints unless ``-s`` is passed).

Scaling: the paper's performance dataset has ~200k rows and its naive
UDF join ran on a 0.2% subset (~400 rows).  Pure-Python dynamic
programming is orders of magnitude slower per row than 2004-era PL/SQL
was, so the default benchmark sizes are scaled down; set
``REPRO_BENCH_SIZE`` (scan rows, default 2000) and
``REPRO_BENCH_JOIN`` (naive-join rows, default 300) to rescale.  The
claims under test are *relative* (orders of magnitude between
strategies), which are scale-stable.
"""

from __future__ import annotations

import json
import os
import random
from pathlib import Path

import pytest

from repro import obs
from repro.core import LexEqualMatcher, MatchConfig, NameCatalog
from repro.data.generator import generate_performance_dataset
from repro.data.lexicon import build_lexicon

RESULTS_DIR = Path(__file__).resolve().parent.parent / "results"

#: Rows in the scan catalog (paper: 200,000).
BENCH_SIZE = int(os.environ.get("REPRO_BENCH_SIZE", "2000"))
#: Rows in the naive-join catalog (paper: ~400 = 0.2% of 200k).
BENCH_JOIN_SIZE = int(os.environ.get("REPRO_BENCH_JOIN", "300"))

#: Seed for every randomized benchmark choice (query sampling, pair
#: draws).  One knob, recorded in every results/*.json payload, so two
#: runs measure the *same* workload: ``--seed N`` on the pytest command
#: line, or ``REPRO_BENCH_SEED`` in the environment (the option wins).
BENCH_SEED = int(os.environ.get("REPRO_BENCH_SEED", "20040314"))


def pytest_addoption(parser: pytest.Parser) -> None:
    parser.addoption(
        "--seed",
        type=int,
        default=None,
        help="benchmark workload seed (default: REPRO_BENCH_SEED or "
        f"{BENCH_SEED})",
    )


def pytest_configure(config: pytest.Config) -> None:
    global BENCH_SEED
    override = config.getoption("--seed", default=None)
    if override is not None:
        BENCH_SEED = override


def bench_rng(salt: int = 0) -> random.Random:
    """A fresh seeded RNG; ``salt`` decorrelates independent draws.

    Always derive benchmark randomness from here — never from an
    unseeded ``random.Random()`` — so reruns and CI measure identical
    workloads.
    """
    return random.Random(BENCH_SEED + salt)

#: The classical configuration used for the performance experiments
#: (Section 5 ran the operator at threshold 0.25; the filters there are
#: the classical unit-cost ones).
PERF_CONFIG = MatchConfig(
    threshold=0.25,
    intra_cluster_cost=1.0,
    weak_indel_cost=1.0,
    vowel_cross_cost=1.0,
)

#: Queries used for selection benchmarks: lexicon-derived concatenations
#: that exist in the generated dataset, plus a miss.
SELECT_QUERIES = ["NehruGandhi", "KrishnaMohan", "OxygenArgon"]


def save_result(name: str, text: str, data: dict | None = None) -> None:
    """Print a paper-style table and persist it under results/.

    Besides the human-readable text table, a machine-readable JSON
    companion (``results/<stem>.json``) is written carrying ``data``
    (bench-specific numbers, if any) plus a snapshot of the metrics
    collected so far this session.  No timestamps, so reruns diff
    cleanly.
    """
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / name).write_text(text + "\n", encoding="utf-8")
    stem = Path(name).stem
    save_metrics(stem, data)
    print(f"\n{text}\n[saved to results/{name} and results/{stem}.json]")


def save_metrics(stem: str, data: dict | None = None) -> None:
    """Write only ``results/<stem>.json`` (git-ignored): ``data`` plus a
    snapshot of the metrics collected so far this session."""
    RESULTS_DIR.mkdir(exist_ok=True)
    payload = {
        "name": stem,
        "bench_size": BENCH_SIZE,
        "bench_join_size": BENCH_JOIN_SIZE,
        "seed": BENCH_SEED,
        "data": data,
        "metrics": obs.snapshot(),
    }
    (RESULTS_DIR / f"{stem}.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )


@pytest.fixture(scope="session", autouse=True)
def _metrics_session():
    """Collect engine metrics for the whole benchmark session.

    Enabled here (not in the library) so normal test runs keep the
    zero-overhead null registry; ``save_result`` embeds snapshots in
    its JSON output.
    """
    obs.enable()
    yield
    obs.disable()


@pytest.fixture(scope="session")
def lexicon():
    """The full tagged quality lexicon (Figure 10 dataset)."""
    return build_lexicon()


@pytest.fixture(scope="session")
def perf_dataset(lexicon):
    """The scaled synthetic performance dataset (Figure 13 dataset)."""
    return generate_performance_dataset(lexicon, BENCH_SIZE)


@pytest.fixture(scope="session")
def perf_catalog(perf_dataset):
    """Scan catalog under the classical performance configuration."""
    catalog = NameCatalog(LexEqualMatcher(PERF_CONFIG))
    for item in perf_dataset:
        catalog.add(item.name, item.language, ipa=item.ipa)
    # Plant the selection queries so scans have hits, as in the paper
    # (its query strings came from the stored data).
    for query in SELECT_QUERIES:
        catalog.add(query, "english")
    return catalog


@pytest.fixture(scope="session")
def join_catalog(perf_dataset):
    """Smaller catalog for the quadratic naive join (paper: 0.2% subset).

    Sampled with a stride so all languages are represented (the
    generator emits per-language blocks, and the join is cross-language).
    """
    catalog = NameCatalog(LexEqualMatcher(PERF_CONFIG))
    by_language: dict[str, list] = {}
    for item in perf_dataset:
        by_language.setdefault(item.language, []).append(item)
    quota = max(1, BENCH_JOIN_SIZE // len(by_language))
    # Aligned prefixes: the generator pairs the same lexicon groups at
    # the same offsets in every language, so these prefixes contain
    # genuine cross-script matches (as the paper's subset did).
    for items in by_language.values():
        for item in items[:quota]:
            catalog.add(item.name, item.language, ipa=item.ipa)
    return catalog


@pytest.fixture(scope="session")
def baseline_times(perf_catalog, join_catalog):
    """Exact and naive-UDF timings shared by the Table 1-3 benches.

    Computed once per session: Table 1 prints them, Tables 2 and 3
    report their speedups against them.
    """
    from repro.core import ExactStrategy, NaiveUdfStrategy
    from repro.evaluation.timing import time_join, time_select

    exact_scan = time_select(ExactStrategy(perf_catalog), SELECT_QUERIES)
    naive_scan = time_select(NaiveUdfStrategy(perf_catalog), SELECT_QUERIES)
    exact_join = time_join(ExactStrategy(join_catalog))
    naive_join = time_join(NaiveUdfStrategy(join_catalog))
    return {
        "exact_scan": exact_scan,
        "naive_scan": naive_scan,
        "exact_join": exact_join,
        "naive_join": naive_join,
    }
