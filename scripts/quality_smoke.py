#!/usr/bin/env python
"""CI quality smoke: the embedding prefilter must stay honest.

A scaled-down, assert-only companion to ``benchmarks/bench_ann.py``
that runs in seconds and fails the build when the ``ann`` strategy's
quality contract breaks:

* **recall** — on the Figure 11 all-pairs harness the prefilter at its
  default admission radius ("cost ≤ 2", ``RADIUS_SCALE``) must
  keep ≥ 98% of the exact strategies' match pairs, while every exact
  strategy sits at recall 1.0 by construction;
* **candidate reduction** — on a seeded generated catalog the radius
  search must admit ≥ 5× fewer rows to exact verification than the
  naive scan considers;
* **subset + lossless equivalence** — every lossy ``ann`` result set
  must be a subset of the naive scan's, and with the admission radius
  set from the proven lower-bound constant the result sets must be
  *identical* (the prefilter becomes lossless).

The floors come from :mod:`repro.perf` (``ANN_QUALITY_FLOORS``) — the
single source shared with the acceptance benchmark — so the smoke
gate, the bench and the golden tests cannot drift apart.  End-to-end
speedup is deliberately *not* asserted here: at smoke scale every
strategy finishes in milliseconds and wall-clock ordering is noise;
the 200k-row acceptance run of ``benchmarks/bench_ann.py`` owns that
floor.

Besides asserting, the run writes a JSON report of its ratios
(``--out``) in the same shape ``repro.perf.check_floors`` reads.

Environment knobs: ``REPRO_QUALITY_SMOKE_ROWS`` (default 2000),
``REPRO_QUALITY_SMOKE_SEED`` (default 20040314).
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import sys

sys.path.insert(
    0, os.path.join(os.path.dirname(__file__), "..", "src")
)

from repro import perf
from repro.core import (
    AnnPrefilterStrategy,
    LexEqualMatcher,
    MatchConfig,
    NaiveUdfStrategy,
    NameCatalog,
)
from repro.data.generator import generate_performance_dataset
from repro.data.lexicon import build_lexicon
from repro.evaluation.quality import strategy_quality

ROWS = int(os.environ.get("REPRO_QUALITY_SMOKE_ROWS", "2000"))
SEED = int(os.environ.get("REPRO_QUALITY_SMOKE_SEED", "20040314"))
QUERIES = 8


def check_figure11_recall() -> float:
    """Per-strategy Figure 11 recall; returns the ann recall ratio."""
    quality = strategy_quality(build_lexicon(), MatchConfig())
    by_name = {q.strategy: q for q in quality}
    for name in ("naive", "qgram"):
        if by_name[name].recall_vs_exact != 1.0:
            raise AssertionError(
                f"exact strategy {name!r} lost matches on the Fig. 11 "
                f"harness: recall {by_name[name].recall_vs_exact:.4f}"
            )
    ann = by_name["ann"]
    print(
        f"fig11: ann recall_vs_exact {ann.recall_vs_exact:.4f}, "
        f"candidate fraction {ann.candidate_fraction:.4f}"
    )
    return ann.recall_vs_exact


def build_catalog() -> NameCatalog:
    config = MatchConfig(
        threshold=0.25,
        intra_cluster_cost=1.0,
        weak_indel_cost=1.0,
        vowel_cross_cost=1.0,
    )
    catalog = NameCatalog(LexEqualMatcher(config))
    for item in generate_performance_dataset(build_lexicon(), ROWS):
        catalog.add(item.name, item.language, ipa=item.ipa)
    return catalog


def check_reduction_and_equivalence(catalog: NameCatalog) -> float:
    """Candidate reduction + subset/lossless checks on a seeded battery.

    Returns the candidate-reduction ratio (rows / mean candidates the
    prefilter admitted to exact verification).
    """
    rng = random.Random(SEED)
    stored = [(r.name, r.language) for r in catalog.records()]
    queries = rng.sample(stored, QUERIES - 1) + [("Zzyzx", "english")]

    naive = NaiveUdfStrategy(catalog)
    ann = AnnPrefilterStrategy(catalog)
    lossless = AnnPrefilterStrategy(catalog, lossless=True)

    candidates = []
    for query, language in queries:
        expected = {r.id for r in naive.select(query, language)}
        got = {r.id for r in ann.select(query, language)}
        candidates.append(ann.last_stats.candidates_after_filters)
        if not got <= expected:
            raise AssertionError(
                f"ann reported non-matches for {query!r}: "
                f"{sorted(got - expected)}"
            )
        exact = {r.id for r in lossless.select(query, language)}
        if exact != expected:
            raise AssertionError(
                f"lossless ann diverged from naive on {query!r}: "
                f"missing {sorted(expected - exact)}, "
                f"extra {sorted(exact - expected)}"
            )
    mean_candidates = statistics.fmean(candidates)
    reduction = len(catalog) / max(mean_candidates, 1.0)
    print(
        f"reduction: mean {mean_candidates:.0f} of {len(catalog)} rows "
        f"verified over {len(queries)} queries -> {reduction:.1f}x"
    )
    return reduction


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out",
        default=None,
        help="write the quality-ratio report as JSON to this path",
    )
    args = parser.parse_args(argv)

    print(f"quality smoke: rows={ROWS} seed={SEED}")
    recall = check_figure11_recall()
    catalog = build_catalog()
    reduction = check_reduction_and_equivalence(catalog)
    # No ``cpu_count`` on purpose: this report carries quality ratios
    # only, so the hardware-gated scaling check must stay out of play.
    report = {
        "rows": ROWS,
        "seed": SEED,
        "ratios": {
            "ann_recall_vs_exact": round(recall, 4),
            "ann_candidate_reduction": round(reduction, 3),
        },
    }
    failures = perf.check_floors(report, perf.ANN_QUALITY_FLOORS)
    if failures:
        for message in failures:
            print(f"FAIL: {message}")
        return 1
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"report -> {args.out}")
    print("quality smoke OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
