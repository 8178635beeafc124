"""Embedding prefilter: candidate reduction, recall, end-to-end speedup.

Three claims under test (ISSUE 10 acceptance):

1. **Candidate reduction** — the quantized articulatory-embedding
   radius search admits a small fraction of the catalog to exact
   verification: ≥ 5× fewer candidates than the naive scan considers.

2. **Recall** — on the Figure 11 all-pairs harness, the prefilter at
   its default admission radius ("cost ≤ 2", ``RADIUS_SCALE``)
   keeps ≥ 98% of the exact strategies' matches.  Exact strategies are
   scored alongside it and must sit at recall 1.0 by construction.

3. **End-to-end speedup** — at the paper-scale 200k-row catalog, the
   ann strategy's select latency beats the best exact strategy by ≥ 2×
   (smoke scale records the ratio but does not enforce it: at a few
   thousand rows every strategy finishes in milliseconds and the
   ordering is noise).

Results land in ``results/ann.txt`` (+ ``.json``) and in
``BENCH_ann.json`` at the repo root — the artifact the CI quality-smoke
job and the acceptance criteria read.  The floors themselves live in
:mod:`repro.perf.gates` so the bench, the smoke script and the tests
cannot drift apart.

The acceptance-scale run (paper-sized catalog) is::

    REPRO_BENCH_SIZE=200000 python -m pytest benchmarks/bench_ann.py -s
"""

from __future__ import annotations

import json
import statistics
import time
from pathlib import Path

from repro.core import (
    AnnPrefilterStrategy,
    MatchConfig,
    NaiveUdfStrategy,
    QGramStrategy,
)
from repro.data.lexicon import build_lexicon
from repro.evaluation.quality import strategy_quality
from repro.perf import gates

from conftest import BENCH_SIZE, SELECT_QUERIES, bench_rng, save_result

ROOT = Path(__file__).resolve().parent.parent

#: Paper-scale row count at which the end-to-end speedup is asserted.
ACCEPTANCE_ROWS = 200_000

#: Exact competitors for the end-to-end comparison.  The naive scan is
#: reported but excluded from "best exact" — the paper's own
#: accelerators are the bar to beat.
EXACT_STRATEGIES = {
    "naive": NaiveUdfStrategy,
    "qgram": QGramStrategy,
}


def _battery(catalog, count: int = 6) -> list[tuple[str, str]]:
    """Seeded ``(query, language)`` pairs: stored names plus the shared
    English battery (hits and a miss), language-tagged so every query
    goes through its own TTP converter."""
    rng = bench_rng(salt=23)
    stored = [
        (record.name, record.language) for record in catalog.records()
    ]
    picks = rng.sample(stored, min(count, len(stored)))
    return picks + [(q, "english") for q in SELECT_QUERIES]


def _mean_select_ms(strategy, queries, repeats: int = 2) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        for query, language in queries:
            strategy.select(query, language)
        best = min(best, time.perf_counter() - start)
    return best * 1e3 / len(queries)


def test_ann_prefilter_quality_and_speed(perf_catalog):
    rows = len(perf_catalog)
    queries = _battery(perf_catalog)
    data: dict = {"rows": rows, "queries": len(queries)}

    # ---- Figure 11 harness: recall/precision per strategy ------------
    quality = strategy_quality(build_lexicon(), MatchConfig())
    by_name = {q.strategy: q for q in quality}
    data["quality"] = {
        q.strategy: {
            "recall_vs_exact": q.recall_vs_exact,
            "candidate_fraction": q.candidate_fraction,
            "recall": q.recall,
            "precision": q.precision,
        }
        for q in quality
    }
    for name in ("naive", "qgram"):
        assert by_name[name].recall_vs_exact == 1.0, name

    # ---- candidate reduction on the perf catalog ---------------------
    ann = AnnPrefilterStrategy(perf_catalog)
    candidate_counts = []
    for query, language in queries:
        ann.select(query, language)
        candidate_counts.append(ann.last_stats.candidates_after_filters)
    mean_candidates = statistics.fmean(candidate_counts)
    reduction = rows / max(mean_candidates, 1.0)
    data["mean_candidates"] = mean_candidates
    data["candidate_reduction"] = reduction

    # ---- end-to-end latency vs the exact strategies ------------------
    strategies_ms = {
        name: _mean_select_ms(cls(perf_catalog), queries)
        for name, cls in EXACT_STRATEGIES.items()
    }
    ann_ms = _mean_select_ms(ann, queries)
    best_exact = min(
        ms for name, ms in strategies_ms.items() if name != "naive"
    )
    speedup = best_exact / ann_ms if ann_ms else float("inf")
    data["strategies_ms"] = strategies_ms
    data["ann_ms"] = ann_ms
    data["speedup_vs_best_exact"] = speedup

    # Gate-readable ratios (repro.perf.gates.check_floors reads these).
    data["ratios"] = {
        "ann_recall_vs_exact": by_name["ann"].recall_vs_exact,
        "ann_candidate_reduction": reduction,
        "ann_speedup_vs_best_exact": speedup,
    }
    floors = (
        gates.ANN_ACCEPTANCE_FLOORS
        if rows >= ACCEPTANCE_ROWS
        else gates.ANN_QUALITY_FLOORS
    )
    failures = gates.check_floors(data, floors)
    assert not failures, failures

    lines = [
        f"Embedding prefilter ({rows} rows, {len(queries)} queries)",
        f"  Fig. 11 recall vs exact: "
        f"{by_name['ann'].recall_vs_exact:.4f} "
        f"(floor {gates.ANN_RECALL_FLOOR})",
        f"  candidate reduction    : {reduction:.1f}x "
        f"(floor {gates.ANN_REDUCTION_FLOOR}x; "
        f"mean {mean_candidates:.0f} of {rows} rows verified)",
        "  select latency (mean ms/query):",
    ]
    for name, ms in sorted(
        {**strategies_ms, "ann": ann_ms}.items(), key=lambda kv: kv[1]
    ):
        lines.append(f"    {name:7s} {ms:9.2f}")
    lines.append(
        f"  speedup vs best exact  : {speedup:.1f}x "
        f"(enforced at {ACCEPTANCE_ROWS} rows: "
        f"{gates.ACCEPTANCE_ANN_SPEEDUP_FLOOR}x)"
    )
    text = "\n".join(lines)
    save_result("ann.txt", text, data)
    (ROOT / "BENCH_ann.json").write_text(
        json.dumps(data, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    print(f"[saved to {ROOT / 'BENCH_ann.json'}]")
