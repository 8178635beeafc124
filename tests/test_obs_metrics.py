"""Tests for the metrics registry (repro.obs)."""

import json
import threading

import pytest

from repro import obs
from repro.obs.registry import (
    Counter,
    Histogram,
    InMemoryMetricsRegistry,
    NullMetricsRegistry,
    Timer,
    _NULL_INSTRUMENT,
)


@pytest.fixture()
def metrics():
    """A fresh enabled registry, restored to disabled afterwards."""
    obs.disable()
    registry = obs.enable()
    yield registry
    obs.disable()


class TestInstruments:
    def test_counter(self):
        c = Counter("x")
        assert c.value == 0
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5

    def test_timer_record_and_context(self):
        t = Timer("x")
        t.record(0.5)
        with t.time():
            pass
        assert t.count == 2
        assert t.seconds >= 0.5

    def test_histogram_summary(self):
        h = Histogram("x")
        assert h.mean is None
        for v in (1, 5, 3):
            h.observe(v)
        assert h.count == 3
        assert h.total == 9
        assert h.min == 1
        assert h.max == 5
        assert h.mean == 3


class TestNullRegistry:
    def test_disabled_by_default(self):
        obs.disable()
        assert not obs.is_enabled()
        assert isinstance(obs.get_registry(), NullMetricsRegistry)

    def test_instruments_are_shared_noop_singleton(self):
        registry = NullMetricsRegistry()
        assert registry.counter("a") is _NULL_INSTRUMENT
        assert registry.timer("b") is _NULL_INSTRUMENT
        assert registry.histogram("c") is _NULL_INSTRUMENT

    def test_mutators_are_noops(self):
        obs.disable()
        obs.incr("never", 100)
        obs.observe("never", 100)
        with obs.timed("never"):
            pass
        data = obs.snapshot()
        assert data["enabled"] is False
        assert data["counters"] == {}

    def test_format_snapshot_disabled(self):
        obs.disable()
        assert "disabled" in obs.format_snapshot()


class TestEnableDisable:
    def test_enable_installs_inmemory(self, metrics):
        assert obs.is_enabled()
        assert isinstance(metrics, InMemoryMetricsRegistry)

    def test_reenable_keeps_registry_and_values(self, metrics):
        obs.incr("kept")
        assert obs.enable() is metrics
        assert obs.snapshot()["counters"]["kept"] == 1

    def test_disable_drops_values(self, metrics):
        obs.incr("gone")
        obs.disable()
        obs.enable()
        assert "gone" not in obs.snapshot()["counters"]

    def test_set_registry(self):
        registry = InMemoryMetricsRegistry()
        assert obs.set_registry(registry) is registry
        assert obs.get_registry() is registry
        obs.disable()


class TestGlobalApi:
    def test_incr_observe_timed_snapshot(self, metrics):
        obs.incr("c", 2)
        obs.observe("h", 7)
        with obs.timed("t"):
            pass
        data = obs.snapshot()
        assert data["counters"]["c"] == 2
        assert data["histograms"]["h"]["count"] == 1
        assert data["histograms"]["h"]["mean"] == 7
        assert data["timers"]["t"]["count"] == 1

    def test_snapshot_is_json_serializable(self, metrics):
        obs.incr("c")
        obs.observe("h", 1.5)
        json.dumps(obs.snapshot())

    def test_format_snapshot_lists_all_sections(self, metrics):
        obs.incr("my.counter")
        obs.observe("my.histogram", 3)
        with obs.timed("my.timer"):
            pass
        text = obs.format_snapshot()
        assert "my.counter" in text
        assert "my.histogram" in text
        assert "my.timer" in text

    def test_reset(self, metrics):
        obs.incr("c")
        metrics.reset()
        assert obs.snapshot()["counters"] == {}

    def test_thread_safety_smoke(self, metrics):
        def work():
            for _ in range(1000):
                obs.incr("shared")

        threads = [threading.Thread(target=work) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert obs.snapshot()["counters"]["shared"] == 4000


class TestInstrumentedLibrary:
    def test_edit_distance_records_dp_work(self, metrics):
        from repro.matching.editdist import edit_distance

        edit_distance("kitten", "sitting")
        counters = obs.snapshot()["counters"]
        assert counters["matching.dp.calls"] == 1
        assert counters["matching.dp.cells"] == 6 * 7

    def test_banded_cutoff_records_fewer_cells(self, metrics):
        from repro.matching.editdist import edit_distance_within

        assert edit_distance_within("kitten", "sitting", 3.0) == 3.0
        counters = obs.snapshot()["counters"]
        assert 0 < counters["matching.dp.cells"] < 6 * 7

    def test_filters_record_pass_and_reject(self, metrics):
        from repro.core import MatchConfig
        from repro.core.sources import QGramSource

        config = MatchConfig(
            threshold=0.25,
            intra_cluster_cost=1.0,
            weak_indel_cost=1.0,
            vowel_cross_cost=1.0,
            qgram_domain="phoneme",
        )
        source = QGramSource(config)
        source.add(0, tuple("neru"))
        source.add(1, tuple("nehrunehru"))
        assert source.candidates(tuple("nehru"), config) == [0]
        counters = obs.snapshot()["counters"]
        assert counters["filters.length.pass"] == 1
        assert counters["filters.length.reject"] == 1
        assert counters["filters.position.pass"] >= 1

    def test_btree_probes_and_misses(self, metrics):
        # BPlusTree.search itself is deliberately uninstrumented; the
        # phonetic pipeline batches probe accounting at its call sites.
        from repro.core.engine import create_phonetic_accelerator
        from repro.core.matcher import LexEqualMatcher
        from repro.minidb.catalog import Database

        db = Database()
        db.execute("CREATE TABLE t (id INTEGER, author TEXT)")
        db.execute("INSERT INTO t VALUES (1, 'Nehru')")
        accelerator = create_phonetic_accelerator(
            db, "t", "author", LexEqualMatcher(), method="index"
        )
        obs.get_registry().reset()
        assert accelerator.candidate_rowids("Nehru", 0.25)
        counters = obs.snapshot()["counters"]
        assert counters["btree.probes"] == 1
        assert "btree.probe_misses" not in counters

        obs.get_registry().reset()
        assert accelerator.candidate_rowids("Xylophone", 0.25) == []
        counters = obs.snapshot()["counters"]
        assert counters["btree.probes"] == 1
        assert counters["btree.probe_misses"] == 1

    def test_ttp_cache_hits_and_misses(self, metrics):
        from repro.ttp.registry import TTPRegistry
        from repro.ttp.base import builtin_converters

        registry = TTPRegistry(builtin_converters())
        registry.transform("Nehru", "english")
        registry.transform("Nehru", "english")
        counters = obs.snapshot()["counters"]
        assert counters["ttp.cache.misses"] == 1
        assert counters["ttp.cache.hits"] == 1

    def test_strategy_publishes_stats(self, metrics):
        from repro.core import LexEqualMatcher, NaiveUdfStrategy, NameCatalog

        catalog = NameCatalog(LexEqualMatcher())
        catalog.add("Nehru", "english")
        catalog.add("Nero", "english")
        strategy = NaiveUdfStrategy(catalog)
        results = strategy.select("Nehru")
        counters = obs.snapshot()["counters"]
        assert counters["strategy.naive-udf.invocations"] == 1
        assert counters["strategy.naive-udf.rows_considered"] == 2
        assert (
            counters["strategy.naive-udf.udf_calls"]
            == strategy.last_stats.udf_calls
        )
        assert counters["strategy.naive-udf.results"] == len(results)
