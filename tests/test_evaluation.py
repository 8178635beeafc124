"""Tests for metrics, quality harness, timing harness and autotune."""

import pytest

from repro.core import (
    LexEqualMatcher,
    MatchConfig,
    NaiveUdfStrategy,
    NameCatalog,
    PhoneticIndexStrategy,
    QGramStrategy,
)
from repro.data.lexicon import build_lexicon
from repro.errors import DatasetError
from repro.evaluation.autotune import autotune
from repro.evaluation.metrics import (
    QualityCounts,
    ideal_match_count,
    recall_precision,
)
from repro.evaluation.quality import (
    evaluate_quality,
    phonetic_index_dismissals,
    strategy_quality,
    sweep_quality,
)
from repro.evaluation.report import (
    format_histogram,
    format_series,
    format_table,
    seconds,
)
from repro.evaluation.timing import time_join, time_select


class TestMetrics:
    def test_ideal_match_count(self):
        assert ideal_match_count([3, 3, 2]) == 3 + 3 + 1

    def test_recall_precision_formulas(self):
        recall, precision = recall_precision(
            correct_matches=9, reported_matches=12, group_sizes=[3, 3, 3, 3]
        )
        assert recall == 9 / 12
        assert precision == 9 / 12

    def test_counts_derived_fields(self):
        counts = QualityCounts(
            correct_matches=8, reported_matches=10, ideal_matches=9
        )
        assert counts.false_positives == 2
        assert counts.false_dismissals == 1
        assert counts.recall == pytest.approx(8 / 9)
        assert counts.precision == 0.8

    def test_empty_report_is_perfect_precision(self):
        counts = QualityCounts(0, 0, 5)
        assert counts.precision == 1.0
        assert counts.recall == 0.0

    def test_no_groups_raises(self):
        counts = QualityCounts(0, 0, 0)
        with pytest.raises(DatasetError):
            counts.recall


class TestQualityHarness:
    @pytest.fixture(scope="class")
    def lexicon(self):
        return build_lexicon(limit_per_domain=40)

    def test_evaluate_single_point(self, lexicon):
        point = evaluate_quality(lexicon, MatchConfig())
        assert 0.5 < point.recall <= 1.0
        assert 0.5 < point.precision <= 1.0

    def test_recall_monotone_in_threshold(self, lexicon):
        points = sweep_quality(lexicon, [0.1, 0.3, 0.5], [0.25])
        recalls = [p.recall for p in points]
        assert recalls == sorted(recalls)

    def test_precision_antitone_in_threshold(self, lexicon):
        points = sweep_quality(lexicon, [0.1, 0.3, 0.5], [0.25])
        precisions = [p.precision for p in points]
        assert precisions == sorted(precisions, reverse=True)

    def test_lower_cost_improves_recall(self, lexicon):
        """Figure 11 finding: recall improves with lower intra cost."""
        points = sweep_quality(lexicon, [0.3], [0.0, 0.5, 1.0])
        by_cost = {p.intra_cluster_cost: p.recall for p in points}
        assert by_cost[0.0] >= by_cost[0.5] >= by_cost[1.0]

    def test_sweep_is_cost_major(self, lexicon):
        points = sweep_quality(lexicon, [0.1, 0.2], [0.0, 1.0])
        assert [
            (p.intra_cluster_cost, p.threshold) for p in points
        ] == [(0.0, 0.1), (0.0, 0.2), (1.0, 0.1), (1.0, 0.2)]

    def test_dismissals_bounded(self, lexicon):
        dismissed, reported, rate = phonetic_index_dismissals(lexicon)
        assert 0 <= dismissed <= reported
        assert 0.0 <= rate < 0.5

    def test_dismissals_against_strategy_ground_truth(self, lexicon):
        """The harness's dismissal count must equal the actual gap
        between naive and phonetic-index join results."""
        matcher = LexEqualMatcher()
        catalog = NameCatalog(matcher)
        subset = [e for e in lexicon.entries if e.tag <= 15]
        for e in subset:
            catalog.add(e.name, e.language, e.tag, ipa=e.ipa)
        naive = {
            (a.id, b.id)
            for a, b in NaiveUdfStrategy(catalog).join(
                cross_language_only=False
            )
        }
        indexed = {
            (a.id, b.id)
            for a, b in PhoneticIndexStrategy(catalog).join(
                cross_language_only=False
            )
        }
        from repro.data.lexicon import MultiscriptLexicon

        sub_lex = MultiscriptLexicon(subset)
        dismissed, reported, _rate = phonetic_index_dismissals(sub_lex)
        assert reported == len(naive)
        assert dismissed == len(naive) - len(indexed)


class TestGoldenStrategyQuality:
    """Pinned Figure 11/12 quality per strategy on the seeded lexicon.

    These numbers are golden: ``build_lexicon(limit_per_domain=25)``
    under the default :class:`MatchConfig` is fully deterministic, so a
    change here means the lexicon build, the matching semantics, the
    grouped key, or the embedding prefilter changed — and that change
    must be deliberate, reviewed against the floors in
    :mod:`repro.perf.gates`, never silent.  The exact strategies are
    pinned *without* tolerance (they share the full-scan result set by
    construction); the lossy ``ann`` numbers get a hair of tolerance so
    a deliberate embedding retune can move candidate fractions within
    the recall floor without re-pinning to 16 digits.
    """

    @pytest.fixture(scope="class")
    def by_name(self, small_lexicon):
        quality = strategy_quality(small_lexicon, MatchConfig())
        return {q.strategy: q for q in quality}

    def test_exact_strategies_are_lossless(self, by_name):
        for name in ("naive", "qgram"):
            q = by_name[name]
            assert q.recall_vs_exact == 1.0, name
            assert q.candidate_fraction == 1.0, name
            assert q.recall == pytest.approx(0.8888888888888888), name
            assert q.precision == 1.0, name

    def test_phonetic_index_golden(self, by_name):
        q = by_name["index"]
        assert q.recall_vs_exact == pytest.approx(0.9444444444444444)
        assert q.candidate_fraction == pytest.approx(
            0.015489609692508243
        )
        assert q.recall == pytest.approx(0.8395061728395061)
        assert q.precision == 1.0

    def test_ann_prefilter_golden(self, by_name):
        q = by_name["ann"]
        # On this lexicon the "cost <= 2" radius loses nothing at all;
        # tolerance covers deliberate retunes, the gate floor (0.98)
        # still catches real regressions on the full harness.
        assert q.recall_vs_exact == pytest.approx(1.0, abs=0.02)
        assert q.recall_vs_exact >= by_name["index"].recall_vs_exact
        assert q.candidate_fraction == pytest.approx(
            0.06333870101986044, rel=0.05
        )
        assert q.recall == pytest.approx(0.8888888888888888, abs=0.02)
        assert q.precision == 1.0

    def test_ann_prefilter_narrows_candidates(self, by_name):
        # The whole point of the tier: far fewer verifications than a
        # scan, far better recall than grouped-key equality.
        assert by_name["ann"].candidate_fraction < 0.2


class TestTiming:
    def test_time_select_accumulates(self, nehru_catalog):
        run = time_select(
            NaiveUdfStrategy(nehru_catalog), ["Nehru", "Gandhi"]
        )
        assert run.operation == "select"
        assert run.seconds > 0
        assert run.result_count >= 4
        assert run.stats.udf_calls == 2 * len(nehru_catalog)
        assert run.per_query(2) == pytest.approx(run.seconds / 2)

    def test_time_join(self, nehru_catalog):
        run = time_join(QGramStrategy(nehru_catalog))
        assert run.operation == "join"
        assert run.result_count > 0

    def test_filters_do_less_work(self, nehru_catalog):
        naive = time_select(NaiveUdfStrategy(nehru_catalog), ["Nehru"])
        qgram = time_select(QGramStrategy(nehru_catalog), ["Nehru"])
        assert qgram.stats.udf_calls < naive.stats.udf_calls


class TestAutotune:
    def test_autotune_finds_knee(self):
        lexicon = build_lexicon(limit_per_domain=30)
        result = autotune(
            lexicon,
            thresholds=[0.1, 0.25, 0.4],
            intra_cluster_costs=[0.25, 1.0],
        )
        assert result.best in result.sweep
        assert result.config.threshold == result.best.threshold
        # The knee should prefer the discounted cost over Levenshtein.
        assert result.config.intra_cluster_cost == 0.25

    def test_custom_objective(self):
        lexicon = build_lexicon(limit_per_domain=20)
        result = autotune(
            lexicon,
            thresholds=[0.1, 0.5],
            intra_cluster_costs=[0.25],
            objective=lambda p: 1.0 - p.recall,  # maximize recall
        )
        assert result.best.threshold == 0.5


class TestReport:
    def test_format_table_aligns(self):
        text = format_table(
            ["Query", "Time"], [["Scan", "0.59 s"], ["Join", "0.20 s"]],
            title="Table 1",
        )
        lines = text.splitlines()
        assert lines[0] == "Table 1"
        assert "Query" in lines[1]
        assert len(lines) == 5

    def test_format_series(self):
        text = format_series(
            "Recall", "e", {"cost=0": [(0.1, 0.5), (0.2, 0.8)]}
        )
        assert "0.1" in text and "0.500" in text

    def test_format_histogram(self):
        text = format_histogram("Lengths", {3: 5, 4: 10})
        assert "#" in text

    def test_format_histogram_empty(self):
        assert "empty" in format_histogram("x", {})

    def test_seconds_scales(self):
        assert seconds(0.0000005).endswith("µs")
        assert seconds(0.5).endswith("ms")
        assert seconds(2.0).endswith("s")
