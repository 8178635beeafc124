"""Cost model + cost-based strategy choice (satellite of ISSUE 7).

Three layers under test:

* :mod:`repro.minidb.cost` — the estimates themselves: scaling shape,
  the lossless-only rule, selectivity sensitivity;
* the ``auto`` accelerator — cost-based choice over a live table after
  ANALYZE, checked against *measured* latency of the forced methods
  (chosen must be the fastest, or within a bounded ratio of it);
* EXPLAIN / EXPLAIN ANALYZE — golden fragments proving estimated rows
  and cost surface next to actuals.
"""

from __future__ import annotations

import random
import time
from unittest import mock

import pytest

from repro.core.config import MatchConfig
from repro.core.engine import create_phonetic_accelerator
from repro.core.integration import demo_books_db, install_lexequal
from repro.core.matcher import LexEqualMatcher
from repro.data.generator import generate_performance_dataset
from repro.data.lexicon import build_lexicon
from repro.minidb import cost
from repro.minidb.catalog import Database
from repro.minidb.schema import Column
from repro.minidb.values import SqlType

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


SELECT = "SELECT id FROM names WHERE name LEXEQUAL :q THRESHOLD 0.25"


def _seeded_db(rows: int) -> tuple[Database, LexEqualMatcher, list[str]]:
    """A ``names`` table of generated names and four English queries."""
    matcher = LexEqualMatcher(MatchConfig(threshold=0.25))
    db = Database()
    install_lexequal(db, matcher)
    db.create_table(
        "names",
        [
            Column("id", SqlType.INTEGER, nullable=False),
            Column("name", SqlType.TEXT),
        ],
    )
    items = list(generate_performance_dataset(build_lexicon(), rows))
    for i, item in enumerate(items):
        db.insert("names", (i, item.name))
    rng = random.Random(SEED)
    english = [it.name for it in items if it.language == "english"]
    return db, matcher, rng.sample(english, min(4, len(english)))


def _accelerate(db, matcher, method="auto", **options):
    accelerator = create_phonetic_accelerator(
        db, "names", "name", matcher, method=method, **options
    )
    db.analyze()
    return accelerator


def _estimates_of(accelerator, query):
    """The accelerator's pick for ``query`` and every estimate it
    weighed."""
    weighed = []
    estimate = cost.estimate_strategies

    def spy(**inputs):
        weighed.append(estimate(**inputs))
        return weighed[-1]

    with mock.patch.object(cost, "estimate_strategies", spy):
        accelerator.db.execute(SELECT, q=query)
    return accelerator.last_choice, weighed[-1]


def _mean_latency(db, queries, repeats=3) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        for query in queries:
            db.execute(SELECT, q=query)
        best = min(best, time.perf_counter() - start)
    return best


class TestChooseStrategy:
    """The ``auto`` accelerator after ANALYZE is the one chooser."""

    def test_choice_is_cheapest_eligible_estimate(self):
        db, matcher, queries = _seeded_db(200)
        accelerator = _accelerate(db, matcher)
        choice, estimates = _estimates_of(accelerator, queries[0])
        eligible = [e for e in estimates if e.lossless]
        assert choice.est_cost == min(e.est_cost for e in eligible)
        assert accelerator.last_method == choice.strategy

    def test_lossy_needs_opt_in(self):
        db, matcher, queries = _seeded_db(200)
        accelerator = _accelerate(db, matcher)
        for query in queries:
            db.execute(SELECT, q=query)
            assert accelerator.last_method != "index"
        accelerator.drop()
        _accelerate(db, matcher, allow_lossy=True)
        choice, _estimates = _estimates_of(
            db.accelerator_for("names", "name"), queries[0]
        )
        assert choice.strategy == "index"

    def test_parallel_needs_workers(self):
        db, matcher, queries = _seeded_db(100)
        accelerator = _accelerate(db, matcher)
        for query in queries:
            _choice, estimates = _estimates_of(accelerator, query)
            assert "parallel" not in {e.strategy for e in estimates}
            assert accelerator.last_method != "parallel"
        accelerator.drop()
        accelerator = _accelerate(db, matcher, workers=1)
        try:
            _choice, estimates = _estimates_of(accelerator, queries[0])
            assert "parallel" in {e.strategy for e in estimates}
        finally:
            accelerator.drop()

    def test_chosen_tracks_measured_fastest(self):
        """The cost model's pick must be the measured-fastest lossless
        method — or within a generous constant of it (timings on
        shared CI hosts are noisy; the *ordering* vs. the plain scan
        must hold strictly)."""
        db, matcher, queries = _seeded_db(400)
        timings = {"naive": _mean_latency(db, queries)}
        # lossy index: not eligible for this choice
        for method, options in (("qgram", {}), ("parallel", {"workers": 1})):
            accelerator = _accelerate(db, matcher, method, **options)
            timings[method] = _mean_latency(db, queries)
            accelerator.drop()
        accelerator = _accelerate(db, matcher)
        db.execute(SELECT, q=queries[0])
        assert accelerator.last_method != "naive"  # 400 rows: no scan
        auto = _mean_latency(db, queries)
        assert auto <= max(5.0 * min(timings.values()), 1e-3)
        assert auto < timings["naive"]


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
