"""Tests for the NameCatalog and the three execution strategies.

The central invariants (paper Section 5):

* the q-gram strategy returns *exactly* the naive strategy's results —
  the filters only remove non-matches;
* the phonetic-index strategy returns a *subset* (false dismissals are
  possible, false positives are not);
* all strategies respect language restrictions and thresholds.
"""

import pytest

from repro.core import (
    ExactStrategy,
    LexEqualMatcher,
    MatchConfig,
    NaiveUdfStrategy,
    NameCatalog,
    PhoneticIndexStrategy,
    QGramStrategy,
)
from repro.errors import DatasetError


class TestNameCatalog:
    def test_add_assigns_sequential_ids(self, matcher):
        catalog = NameCatalog(matcher)
        first = catalog.add("Nehru", "english", 1)
        second = catalog.add("नेहरु", "hindi", 1)
        assert (first, second) == (0, 1)
        assert len(catalog) == 2

    def test_record_fetch(self, nehru_catalog):
        record = nehru_catalog.record(0)
        assert record.name == "Nehru"
        assert record.language == "english"
        assert record.tag == 1
        assert record.ipa

    def test_record_missing_raises(self, nehru_catalog):
        with pytest.raises(DatasetError):
            nehru_catalog.record(999)

    def test_record_out_of_range_raises(self, nehru_catalog):
        # A plain list index would wrap -1 to the last record.
        for record_id in (-1, len(nehru_catalog)):
            with pytest.raises(DatasetError):
                nehru_catalog.record(record_id)

    def test_records_in_id_order(self, nehru_catalog):
        ids = [r.id for r in nehru_catalog.records()]
        assert ids == sorted(ids)

    def test_precomputed_ipa_respected(self, matcher):
        catalog = NameCatalog(matcher)
        catalog.add("Custom", "english", ipa="nero")
        assert catalog.record(0).ipa == "nero"
        assert catalog.phonemes_of(0) == ("n", "e", "r", "o")

    def test_empty_transcription_rejected(self, matcher):
        catalog = NameCatalog(matcher)
        with pytest.raises(DatasetError):
            catalog.add("-", "english")

    def test_qgram_rows_created(self, matcher):
        catalog = NameCatalog(matcher)
        catalog.add("Nehru", "english")
        source = catalog.keyed.source("qgram")
        phonemes = catalog.phonemes_of(0)
        assert source.posting_count == len(phonemes) + catalog.config.q - 1
        catalog.add("Gandhi", "english")
        assert catalog.keyed.source("qgram") is source
        assert len(source) == 2


class TestSelect:
    def test_naive_matches_figure_4(self, nehru_catalog):
        results = NaiveUdfStrategy(nehru_catalog).select("Nehru")
        assert [r.name for r in results] == ["Nehru", "नेहरु", "நேரு"]

    def test_qgram_equals_naive(self, nehru_catalog):
        for query in ["Nehru", "Gandhi", "Krishnan", "Smith", "Zzyzx"]:
            naive = NaiveUdfStrategy(nehru_catalog).select(query)
            qgram = QGramStrategy(nehru_catalog).select(query)
            assert [r.id for r in qgram] == [r.id for r in naive], query

    def test_phonetic_subset_of_naive(self, nehru_catalog):
        for query in ["Nehru", "Gandhi", "Krishnan", "Smith"]:
            naive = {r.id for r in NaiveUdfStrategy(nehru_catalog).select(query)}
            indexed = {
                r.id for r in PhoneticIndexStrategy(nehru_catalog).select(query)
            }
            assert indexed <= naive

    def test_language_restriction(self, nehru_catalog):
        results = NaiveUdfStrategy(nehru_catalog).select(
            "Nehru", languages=("hindi",)
        )
        assert [r.language for r in results] == ["hindi"]

    def test_stats_show_filter_effectiveness(self, nehru_catalog):
        naive = NaiveUdfStrategy(nehru_catalog)
        qgram = QGramStrategy(nehru_catalog)
        naive.select("Nehru")
        qgram.select("Nehru")
        assert qgram.last_stats.udf_calls < naive.last_stats.udf_calls

    def test_exact_strategy_cannot_cross_scripts(self, nehru_catalog):
        results = ExactStrategy(nehru_catalog).select("Nehru")
        assert [r.name for r in results] == ["Nehru"]


class TestJoin:
    def test_naive_join_finds_cross_script_groups(self, nehru_catalog):
        pairs = NaiveUdfStrategy(nehru_catalog).join()
        names = {(a.name, b.name) for a, b in pairs}
        assert ("Nehru", "नेहरु") in names
        assert ("Gandhi", "गांधी") in names

    def test_join_cross_language_only(self, nehru_catalog):
        pairs = NaiveUdfStrategy(nehru_catalog).join(cross_language_only=True)
        assert all(a.language != b.language for a, b in pairs)

    def test_join_including_same_language(self, matcher):
        catalog = NameCatalog(matcher)
        catalog.add_many(
            [("Kathy", "english"), ("Cathy", "english")]
        )
        with_same = NaiveUdfStrategy(catalog).join(cross_language_only=False)
        without = NaiveUdfStrategy(catalog).join(cross_language_only=True)
        assert len(with_same) == 1
        assert len(without) == 0

    def test_qgram_join_equals_naive(self, nehru_catalog):
        naive = NaiveUdfStrategy(nehru_catalog).join()
        qgram = QGramStrategy(nehru_catalog).join()
        assert [(a.id, b.id) for a, b in qgram] == [
            (a.id, b.id) for a, b in naive
        ]

    def test_phonetic_join_subset(self, nehru_catalog):
        naive = {
            (a.id, b.id) for a, b in NaiveUdfStrategy(nehru_catalog).join()
        }
        indexed = {
            (a.id, b.id)
            for a, b in PhoneticIndexStrategy(nehru_catalog).join()
        }
        assert indexed <= naive

    def test_pairs_ordered_by_id(self, nehru_catalog):
        pairs = NaiveUdfStrategy(nehru_catalog).join()
        assert all(a.id < b.id for a, b in pairs)

    def test_exact_join_same_spelling_only(self, matcher):
        catalog = NameCatalog(matcher)
        catalog.add_many(
            [
                ("Nehru", "english"),
                ("Nehru", "french"),
                ("नेहरु", "hindi"),
            ]
        )
        pairs = ExactStrategy(catalog).join()
        assert len(pairs) == 1
        assert pairs[0][0].name == pairs[0][1].name == "Nehru"


class TestAgreementAtScale:
    """Randomized cross-strategy agreement over a lexicon slice."""

    @pytest.fixture(scope="class")
    def lexicon_catalog(self, small_lexicon):
        matcher = LexEqualMatcher()
        catalog = NameCatalog(matcher)
        for entry in small_lexicon:
            catalog.add(entry.name, entry.language, entry.tag, ipa=entry.ipa)
        return catalog

    def test_select_agreement(self, lexicon_catalog):
        queries = ["Aakash", "Krishna", "Aaron", "Amazon", "Acetone"]
        for query in queries:
            naive = NaiveUdfStrategy(lexicon_catalog).select(query)
            qgram = QGramStrategy(lexicon_catalog).select(query)
            indexed = PhoneticIndexStrategy(lexicon_catalog).select(query)
            assert [r.id for r in qgram] == [r.id for r in naive]
            assert {r.id for r in indexed} <= {r.id for r in naive}

    def test_join_agreement(self, lexicon_catalog):
        naive = NaiveUdfStrategy(lexicon_catalog).join()
        qgram = QGramStrategy(lexicon_catalog).join()
        indexed = PhoneticIndexStrategy(lexicon_catalog).join()
        assert [(a.id, b.id) for a, b in qgram] == [
            (a.id, b.id) for a, b in naive
        ]
        assert {(a.id, b.id) for a, b in indexed} <= {
            (a.id, b.id) for a, b in naive
        }

    def test_classical_config_agreement(self, small_lexicon):
        config = MatchConfig(
            threshold=0.25,
            intra_cluster_cost=1.0,
            weak_indel_cost=1.0,
            vowel_cross_cost=1.0,
        )
        catalog = NameCatalog(LexEqualMatcher(config))
        for entry in small_lexicon:
            catalog.add(entry.name, entry.language, entry.tag, ipa=entry.ipa)
        naive = NaiveUdfStrategy(catalog).join()
        qgram = QGramStrategy(catalog).join()
        assert [(a.id, b.id) for a, b in qgram] == [
            (a.id, b.id) for a, b in naive
        ]
