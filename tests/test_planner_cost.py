"""Cost model + cost-based strategy choice (satellite of ISSUE 7).

Three layers under test:

* :mod:`repro.minidb.cost` — the estimates themselves: scaling shape,
  the lossless-only rule, selectivity sensitivity;
* :func:`repro.core.strategies.choose_strategy` — cost-based choice
  over a live catalog, checked against *measured* strategy latency
  (chosen must be the fastest, or within a bounded ratio of it);
* EXPLAIN / EXPLAIN ANALYZE — golden fragments proving estimated rows
  and cost surface next to actuals.
"""

from __future__ import annotations

import random
import time

import pytest

from repro.core.config import MatchConfig
from repro.core.integration import demo_books_db
from repro.core.matcher import LexEqualMatcher
from repro.core.strategies import (
    STRATEGY_CLASSES,
    NameCatalog,
    choose_strategy,
)
from repro.data.generator import generate_performance_dataset
from repro.data.lexicon import build_lexicon
from repro.minidb import cost

SEED = 20040314


# ----------------------------------------------------------- estimates


class TestEstimates:
    def _by_name(self, **kwargs):
        return {
            e.strategy: e for e in cost.estimate_strategies(**kwargs)
        }

    def test_naive_scales_linearly_in_rows(self):
        small = self._by_name(rows=100, query_len=6, avg_plen=6)["naive"]
        big = self._by_name(rows=10_000, query_len=6, avg_plen=6)["naive"]
        assert big.est_cost == pytest.approx(100 * small.est_cost)
        assert big.est_rows == 10_000

    def test_qgram_beats_naive_when_selective(self):
        ests = self._by_name(
            rows=10_000, query_len=6, avg_plen=6, qgram_sel=0.01
        )
        assert ests["qgram"].est_cost < ests["naive"].est_cost
        assert ests["qgram"].est_rows == pytest.approx(100)

    def test_qgram_probe_overhead_wins_on_tiny_tables(self):
        # 2 rows: scanning both beats paying per-gram B+ tree probes.
        ests = self._by_name(
            rows=2, query_len=8, avg_plen=8, qgram_sel=1.0, avg_posting=2
        )
        assert ests["naive"].est_cost < ests["qgram"].est_cost

    def test_index_is_cheap_but_lossy(self):
        ests = self._by_name(rows=10_000, query_len=6, avg_plen=6)
        assert ests["index"].est_cost < ests["qgram"].est_cost
        assert not ests["index"].lossless
        assert all(e.lossless for name, e in ests.items() if name != "index")

    def test_parallel_amortizes_only_at_scale(self):
        small = self._by_name(
            rows=1_000, query_len=6, avg_plen=6, workers=8
        )
        big = self._by_name(
            rows=1_000_000, query_len=6, avg_plen=6, workers=8
        )
        assert small["parallel"].est_cost > small["naive"].est_cost
        assert big["parallel"].est_cost < big["naive"].est_cost

    def test_choose_excludes_lossy_by_default(self):
        ests = cost.estimate_strategies(
            rows=10_000, query_len=6, avg_plen=6
        )
        lossless = cost.choose(ests)
        assert lossless.lossless
        lossy_ok = cost.choose(ests, allow_lossy=True)
        assert lossy_ok.strategy == "index"
        assert lossy_ok.est_cost <= lossless.est_cost

    def test_describe_mentions_lossy(self):
        ests = {
            e.strategy: e
            for e in cost.estimate_strategies(
                rows=10, query_len=4, avg_plen=4
            )
        }
        assert "(lossy)" in ests["index"].describe()
        assert "(lossy)" not in ests["qgram"].describe()


# ------------------------------------------------- choice vs. measured


def _seeded_catalog(rows: int) -> tuple[NameCatalog, list[str]]:
    matcher = LexEqualMatcher(MatchConfig(threshold=0.25))
    catalog = NameCatalog(matcher)
    items = list(generate_performance_dataset(build_lexicon(), rows))
    for item in items:
        catalog.add(item.name, item.language, ipa=item.ipa)
    rng = random.Random(SEED)
    english = [it.name for it in items if it.language == "english"]
    return catalog, rng.sample(english, min(4, len(english)))


def _mean_latency(strategy, queries, repeats=3) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        for query in queries:
            strategy.select(query)
        best = min(best, time.perf_counter() - start)
    return best


class TestChooseStrategy:
    def test_choice_is_cheapest_eligible_estimate(self):
        catalog, queries = _seeded_catalog(200)
        choice = choose_strategy(catalog, queries[0])
        eligible = [e for e in choice.estimates if e.lossless]
        assert choice.estimate.est_cost == min(
            e.est_cost for e in eligible
        )
        assert isinstance(
            choice.strategy, STRATEGY_CLASSES[choice.name]
        )

    def test_lossy_needs_opt_in(self):
        catalog, queries = _seeded_catalog(200)
        assert choose_strategy(catalog, queries[0]).name != "index"
        lossy = choose_strategy(
            catalog, queries[0], allow_lossy=True
        )
        assert lossy.name == "index"

    def test_available_restricts_the_field(self):
        catalog, queries = _seeded_catalog(100)
        only = choose_strategy(
            catalog, queries[0], available=("naive",)
        )
        assert only.name == "naive"
        assert [e.strategy for e in only.estimates] == ["naive"]

    def test_chosen_tracks_measured_fastest(self):
        """The cost model's pick must be the measured-fastest lossless
        strategy — or within a generous constant of it (timings on
        shared CI hosts are noisy; the *ordering* vs. naive must hold
        strictly)."""
        catalog, queries = _seeded_catalog(400)
        choice = choose_strategy(catalog, queries[0])
        assert choice.name != "naive"  # 400 rows: a scan cannot win
        timings = {
            name: _mean_latency(klass(catalog), queries)
            for name, klass in STRATEGY_CLASSES.items()
            # lossy index: not eligible for this choice
            if name != "index"
        }
        fastest = min(timings.values())
        assert timings[choice.name] <= max(5.0 * fastest, 1e-3)
        assert timings[choice.name] < timings["naive"]


# --------------------------------------------------------- EXPLAIN


class TestExplainEstimates:
    def test_explain_shows_est_rows_and_cost(self):
        db = demo_books_db("auto", LexEqualMatcher())
        plan = db.explain(
            "SELECT title FROM books "
            "WHERE author LEXEQUAL 'Nehru' THRESHOLD 0.25"
        )
        assert "est_rows=" in plan and "est_cost=" in plan
        assert "accelerator" in plan

    def test_explain_analyze_shows_estimates_next_to_actuals(self):
        db = demo_books_db("auto", LexEqualMatcher())
        plan = db.explain(
            "SELECT title FROM books "
            "WHERE author LEXEQUAL 'Nehru' THRESHOLD 0.25",
            analyze=True,
        )
        assert "est_rows=" in plan and "est_cost=" in plan
        assert "rows=" in plan and "loops=" in plan

    def test_analyze_populates_stats_catalog(self):
        db = demo_books_db("qgram", LexEqualMatcher())
        updated = db.analyze()
        assert updated > 0
        payload = db.stats.to_dict()
        assert payload, "ANALYZE left the stats catalog empty"
        plan = db.explain(
            "SELECT title FROM books "
            "WHERE author LEXEQUAL 'Nehru' THRESHOLD 0.25"
        )
        assert "est_rows=" in plan
