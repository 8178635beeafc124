"""Tests for ``repro.parallel``: table, executor, strategy, snapshot.

The load-bearing invariant is *exactness*: the sharded executor (inline
or across a process pool) and :class:`ParallelStrategy` must return the
same match sets as :class:`NaiveUdfStrategy`, which is the reference
semantics.  The golden snapshot class pins the cross-strategy agreement
to concrete id sets on the seeded bundled lexicon, so a regression in
any one strategy (or in the lexicon build) fails loudly rather than
letting the equality checks drift together.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro import deadline
from repro.core import (
    LexEqualMatcher,
    MatchConfig,
    NaiveUdfStrategy,
    NameCatalog,
    PhoneticIndexStrategy,
    QGramStrategy,
)
from repro.core.sources import PhonemeStore, _encode
from repro.errors import DeadlineExceededError, PhonemeError
from repro.matching.costs import ClusteredCost
from repro.parallel import (
    EncodedNameTable,
    ParallelMatchExecutor,
    ParallelStrategy,
)
from repro.parallel.executor import (
    CHUNKS_PER_WORKER,
    ParallelExecutionError,
    _chunks,
    _join_shard_on,
    _match_shard_on,
    _merge,
)


ROWS = [
    (0, "english", ("n", "e", "h", "r", "u")),
    (1, "hindi", ("n", "eː", "h", "r", "u")),
    (2, "english", ("n", "e", "r", "o")),
    (3, "tamil", ("n", "eː", "r", "u")),
    (4, "english", ("s", "m", "i", "θ")),
]


def _table(costs=None, rows=ROWS) -> EncodedNameTable:
    store = PhonemeStore(costs or ClusteredCost(0.25))
    store.update((rid, phonemes) for rid, _lang, phonemes in rows)
    return EncodedNameTable.from_store(
        store, {rid: lang for rid, lang, _phonemes in rows}
    )


def _empty_table() -> EncodedNameTable:
    return EncodedNameTable.from_store(PhonemeStore(ClusteredCost(0.25)))


class TestEncodedNameTable:
    def test_csr_layout_round_trips(self):
        table = _table()
        assert len(table) == len(ROWS)
        for pos, (_id, _lang, phonemes) in enumerate(ROWS):
            start, stop = table.offsets[pos], table.offsets[pos + 1]
            assert stop - start == len(phonemes) == table.lens[pos]
            expected = np.frombuffer(_encode(phonemes), np.uint8)
            assert (table.codes[start:stop] == expected).all()
        assert table.codes.dtype == np.int64

    def test_language_codes(self):
        table = _table()
        assert tuple(table.languages) == ("english", "hindi", "tamil")
        allowed = table.language_codes_for(("English", "TAMIL"))
        mask = np.isin(table.lang_codes, allowed)
        assert list(table.ids[mask]) == [0, 2, 3, 4]
        assert table.language_codes_for(()) is None

    def test_encode_query_unknown_symbol(self):
        assert _encode(("n", "e")) is not None
        with pytest.raises(PhonemeError):
            _encode(("n", "<no-such>"))

    def test_from_catalog_matches_from_store(self):
        matcher = LexEqualMatcher()
        catalog = NameCatalog(matcher)
        catalog.add("Nehru", "english", ipa="nehru")
        catalog.add("Nero", "english", ipa="nero")
        table = EncodedNameTable.from_catalog(catalog.keyed)
        assert len(table) == 2
        assert list(table.ids) == [0, 1]
        # The store's cached cost tables: equal cost models share them.
        assert table.encoded.costs == matcher.costs
        store = PhonemeStore(matcher.costs)
        store.update(
            (i, catalog.phonemes_of(i)) for i in catalog.ids()
        )
        gathered = EncodedNameTable.from_store(
            store, {i: catalog.language_of(i) for i in catalog.ids()}
        )
        for name in ("codes", "offsets", "ids", "lang_codes"):
            assert np.array_equal(getattr(table, name), getattr(gathered, name))
        assert table.languages == gathered.languages == ("english",)

    def test_empty_table(self):
        table = _empty_table()
        assert len(table) == 0


class TestParallelMatchExecutor:
    def test_inline_and_pool_agree(self):
        table = _table()
        query = ("n", "e", "h", "r", "u")
        with ParallelMatchExecutor(table, workers=1) as inline:
            with ParallelMatchExecutor(table, workers=3) as pooled:
                for threshold in (0.0, 0.25, 0.5, 1.0):
                    ids_a, d_a = inline.match(query, threshold)
                    ids_b, d_b = pooled.match(query, threshold)
                    assert list(ids_a) == list(ids_b)
                    assert list(d_a) == list(d_b)
                    assert inline.last_stats == pooled.last_stats

    def test_match_results_sorted_and_exact(self):
        from repro.matching.editdist import edit_distance

        table = _table()
        costs = table.encoded.costs
        query = ("n", "e", "r", "u")
        with ParallelMatchExecutor(table, workers=1) as ex:
            ids, dists = ex.match(query, 0.5)
        assert list(ids) == sorted(ids)
        for record_id, dist in zip(ids, dists):
            phonemes = dict(
                (rid, ph) for rid, _lang, ph in ROWS
            )[record_id]
            assert dist == edit_distance(query, phonemes, costs)
            assert dist <= 0.5 * min(len(query), len(phonemes))

    def test_language_filter(self):
        table = _table()
        query = ("n", "e", "h", "r", "u")
        with ParallelMatchExecutor(table, workers=1) as ex:
            all_ids, _ = ex.match(query, 0.5)
            eng_ids, _ = ex.match(query, 0.5, languages=("english",))
            none_ids, _ = ex.match(query, 0.5, languages=("greek",))
        assert set(eng_ids) <= set(all_ids)
        assert all(
            dict((rid, lang) for rid, lang, _ph in ROWS)[i] == "english"
            for i in eng_ids
        )
        assert len(none_ids) == 0

    def test_join_pairs_inline_and_pool_agree(self):
        table = _table()
        with ParallelMatchExecutor(table, workers=1) as inline:
            with ParallelMatchExecutor(table, workers=3) as pooled:
                for cross in (True, False):
                    a1, b1, d1 = inline.match_all_pairs(
                        0.5, cross_language_only=cross
                    )
                    a2, b2, d2 = pooled.match_all_pairs(
                        0.5, cross_language_only=cross
                    )
                    assert list(zip(a1, b1, d1)) == list(zip(a2, b2, d2))
        assert (a1 < b1).all()

    def test_join_counts_all_pairs(self):
        table = _table()
        n = len(table)
        with ParallelMatchExecutor(table, workers=1) as ex:
            ex.match_all_pairs(0.5)
            assert ex.last_stats["rows"] == n * (n - 1) // 2

    def test_chunks_cover_rows_once(self):
        for rows in (0, 1, 2, 3, 40):
            for workers in (1, 2, 3, 8):
                chunks = _chunks(rows, workers)
                assert len(chunks) == min(rows, CHUNKS_PER_WORKER * workers)
                covered = []
                for start, stop in chunks:
                    assert start < stop
                    covered.extend(range(start, stop))
                assert covered == list(range(rows))
                sizes = {stop - start for start, stop in chunks}
                assert not sizes or max(sizes) - min(sizes) <= 1

    def test_select_shards_cover_table(self):
        table = _table()
        q = table.codes[table.offsets[0] : table.offsets[1]]
        whole = _match_shard_on(table, 0, len(table), q, 0.5, None)
        for workers in (1, 2, 3, 8):
            covered = []
            parts = []
            for start, stop in _chunks(len(table), workers):
                assert start < stop
                covered.extend(range(start, stop))
                parts.append(_match_shard_on(table, start, stop, q, 0.5, None))
            assert covered == list(range(len(table)))
            ids, dists, scanned, _candidates = _merge(parts)
            assert ids.tolist() == whole[0].tolist()
            assert dists.tolist() == whole[1].tolist()
            assert scanned == len(table)

    def test_join_shards_cover_triangle(self):
        table = _table()
        n = len(table)
        triangle = [
            (int(table.ids[i]), int(table.ids[j]))
            for i in range(n)
            for j in range(i + 1, n)
        ]
        for workers in (1, 2, 4):
            covered = []
            parts = []
            for start, stop in _chunks(n - 1, workers):
                covered.extend(range(start, stop))
                # A threshold this loose keeps every pair as a match.
                parts.append(_join_shard_on(table, start, stop, 100.0, False))
            assert covered == list(range(n - 1))
            ids_a, ids_b, _dists, pairs, _candidates = _merge(parts)
            assert sorted(zip(ids_a.tolist(), ids_b.tolist())) == sorted(
                triangle
            )
            assert pairs == len(triangle)

    @pytest.mark.parametrize("rows", [2, 3])
    def test_pool_on_tiny_table_matches_inline(self, rows):
        # Fewer rows than workers: most workers claim no chunk at all.
        def run(ex):
            ids, dists = ex.match(("n", "e", "h", "r", "u"), 0.5)
            select = (ids.tolist(), dists.tolist(), ex.last_stats)
            ids_a, ids_b, dists = ex.match_all_pairs(
                0.5, cross_language_only=False
            )
            pairs = list(zip(ids_a.tolist(), ids_b.tolist()))
            return select, (pairs, dists.tolist(), ex.last_stats)

        table = _table(rows=ROWS[:rows])
        with ParallelMatchExecutor(table, workers=1) as inline:
            expected = run(inline)
        with ParallelMatchExecutor(table, workers=4) as pooled:
            assert pooled._workers
            assert run(pooled) == expected
        assert expected[0][0] and expected[1][0]

    def test_unknown_query_symbol_raises(self):
        with ParallelMatchExecutor(_table(), workers=1) as ex:
            with pytest.raises(PhonemeError):
                ex.match(("n", "<no-such>"), 0.5)

    def test_use_after_close_raises(self):
        ex = ParallelMatchExecutor(_table(), workers=1)
        ex.close()
        with pytest.raises(ParallelExecutionError):
            ex.match(("n", "e"), 0.5)
        ex.close()  # idempotent

    def test_expired_deadline_cancels(self):
        with ParallelMatchExecutor(_table(), workers=1) as ex:
            with deadline.deadline_scope(1e-4):
                time.sleep(0.01)
                with pytest.raises(DeadlineExceededError):
                    ex.match(("n", "e", "h", "r", "u"), 0.5)

    def test_empty_table_matches_nothing(self):
        table = _empty_table()
        with ParallelMatchExecutor(table, workers=4) as ex:
            ids, dists = ex.match(("n",), 0.5)
            assert len(ids) == 0
            a, b, d = ex.match_all_pairs(0.5)
            assert len(a) == len(b) == len(d) == 0


class TestParallelStrategy:
    @pytest.fixture(params=[1, 2])
    def strategy_pair(self, nehru_catalog, request):
        naive = NaiveUdfStrategy(nehru_catalog)
        with ParallelStrategy(
            nehru_catalog, workers=request.param
        ) as parallel:
            yield naive, parallel

    def test_select_equals_naive(self, strategy_pair):
        naive, parallel = strategy_pair
        for query in ["Nehru", "Gandhi", "Krishnan", "Smith", "Zzyzx"]:
            expected = [r.id for r in naive.select(query)]
            got = [r.id for r in parallel.select(query)]
            assert got == expected, query
            assert (
                parallel.last_stats.rows_considered
                == naive.last_stats.rows_considered
            )

    def test_select_language_restriction(self, strategy_pair):
        naive, parallel = strategy_pair
        for languages in [("hindi",), ("english", "tamil"), ("greek",)]:
            expected = [
                r.id for r in naive.select("Nehru", languages=languages)
            ]
            got = [
                r.id for r in parallel.select("Nehru", languages=languages)
            ]
            assert got == expected, languages

    def test_join_equals_naive(self, strategy_pair):
        naive, parallel = strategy_pair
        for cross in (True, False):
            expected = [
                (a.id, b.id)
                for a, b in naive.join(cross_language_only=cross)
            ]
            got = [
                (a.id, b.id)
                for a, b in parallel.join(cross_language_only=cross)
            ]
            assert got == expected
            assert (
                parallel.last_stats.rows_considered
                == naive.last_stats.rows_considered
            )

    def test_rebuilds_after_catalog_growth(self, nehru_catalog):
        with ParallelStrategy(nehru_catalog, workers=1) as parallel:
            before = {r.id for r in parallel.select("Nehru")}
            new_id = nehru_catalog.add("Neeru", "english")
            after = {r.id for r in parallel.select("Neeru")}
            assert new_id in after
            assert before <= {r.id for r in parallel.select("Nehru")}

    def test_stats_candidates_bounded_by_rows(self, strategy_pair):
        _naive, parallel = strategy_pair
        parallel.select("Nehru")
        stats = parallel.last_stats
        assert 0 < stats.candidates_after_filters <= stats.rows_considered
        assert stats.udf_calls == stats.candidates_after_filters


class TestGoldenCrossStrategySnapshot:
    """Five strategies, one seeded lexicon, pinned match sets.

    The queries were chosen so that even the (lossy) phonetic index
    agrees; the expected id sets are golden — they change only if the
    lexicon build or the matching semantics change, and such a change
    must be deliberate.
    """

    #: query -> match ids on build_lexicon(limit_per_domain=25).
    GOLDEN = {
        "Aakash": [0],
        "Abhishek": [3, 4, 5],
        "Ajay": [6, 7, 8],
        "Amar": [15, 16, 17],
        "Arun": [30, 31, 32],
        "Aaron": [45, 46, 47],
        "Alexander": [51, 52, 53],
        "Amy": [63, 64, 65],
        "Angela": [69, 70, 71],
        "Amazon": [111, 112],
        "Krishna": [],
        "Benzene": [],
    }

    @pytest.fixture(scope="class")
    def catalog(self, small_lexicon):
        catalog = NameCatalog(LexEqualMatcher())
        for entry in small_lexicon:
            catalog.add(entry.name, entry.language, entry.tag, ipa=entry.ipa)
        return catalog

    @pytest.fixture(scope="class")
    def strategies(self, catalog):
        parallel = ParallelStrategy(catalog, workers=2)
        yield [
            NaiveUdfStrategy(catalog),
            QGramStrategy(catalog),
            PhoneticIndexStrategy(catalog),
            parallel,
        ]
        parallel.close()

    def test_selects_match_golden(self, strategies):
        for query, expected in self.GOLDEN.items():
            for strategy in strategies:
                got = [r.id for r in strategy.select(query)]
                assert got == expected, (strategy.name, query, got)

    def test_lossless_joins_agree(self, catalog):
        naive = [
            (a.id, b.id) for a, b in NaiveUdfStrategy(catalog).join()
        ]
        qgram = [
            (a.id, b.id) for a, b in QGramStrategy(catalog).join()
        ]
        with ParallelStrategy(catalog, workers=2) as strategy:
            parallel = [(a.id, b.id) for a, b in strategy.join()]
        assert qgram == naive
        assert parallel == naive
        assert len(naive) > 0

    def test_classical_config_parallel_agreement(self, small_lexicon):
        config = MatchConfig(
            threshold=0.25,
            intra_cluster_cost=1.0,
            weak_indel_cost=1.0,
            vowel_cross_cost=1.0,
        )
        catalog = NameCatalog(LexEqualMatcher(config))
        for entry in small_lexicon:
            catalog.add(entry.name, entry.language, entry.tag, ipa=entry.ipa)
        naive = [
            (a.id, b.id) for a, b in NaiveUdfStrategy(catalog).join()
        ]
        with ParallelStrategy(catalog, workers=1) as strategy:
            parallel = [(a.id, b.id) for a, b in strategy.join()]
        assert parallel == naive
