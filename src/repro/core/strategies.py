"""Execution strategies for LexEQUAL selections and joins.

The paper evaluates three ways to run a multiscript query over a names
table (Section 5):

* :class:`NaiveUdfStrategy` — Table 1's baseline: a full scan (or a full
  nested-loop self-join) invoking the expensive Figure 8 dynamic program
  on every row/pair;
* :class:`QGramStrategy` — Table 2: positional q-gram postings plus the
  length/count/position filters of Figure 14, verifying only the
  surviving candidates;
* :class:`PhoneticIndexStrategy` — Table 3: a probe on the *grouped
  phoneme string identifier* (Figure 15) yields the candidates, at the
  price of false dismissals.

:class:`AnnPrefilterStrategy` adds the articulatory-embedding prefilter.
All three filtered strategies are one :class:`FilteredStrategy` over a
candidate source of :mod:`repro.core.sources`: candidates, then the
language filter, then the one batch verifier.

Strategies run against a :class:`NameCatalog`, which owns the minidb
``names`` table, its id index, the per-row phoneme strings, and the
candidate sources built from them on first use.  Strategies record how
much work they did in :attr:`Strategy.last_stats`, which the benchmark
harness reports.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

from repro import obs
from repro.core.config import MatchConfig
from repro.core.matcher import LexEqualMatcher
from repro.core.sources import (
    SOURCES,
    CandidateSource,
    PhonemeStore,
    cost_inputs,
)
from repro.errors import DatasetError
from repro.matching.editdist import edit_distance
from repro.minidb.catalog import Database
from repro.minidb.schema import Column
from repro.minidb.values import SqlType
from repro.phonetics.parse import PhonemeString, format_phonemes, parse_ipa


@dataclass(frozen=True)
class NameRecord:
    """One stored name."""

    id: int
    name: str
    language: str
    tag: int | None
    ipa: str

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.name} ({self.language})"


@dataclass
class StrategyStats:
    """Work accounting for one strategy invocation."""

    rows_considered: int = 0
    candidates_after_filters: int = 0
    udf_calls: int = 0
    results: int = 0


class NameCatalog:
    """A multiscript names table with its phonetic auxiliary structures.

    Owns one minidb table ``<name>`` (``id, name, language, tag, pname,
    plen`` — the names with their IPA transcription and phoneme count)
    with a B+ tree index on ``id``, plus the parsed phoneme string of
    every row.  Candidate sources are built from those strings the first
    time :meth:`source` asks for one and kept current by :meth:`add`.
    """

    def __init__(
        self,
        matcher: LexEqualMatcher | None = None,
        db: Database | None = None,
        table_name: str = "names",
    ):
        self.matcher = matcher or LexEqualMatcher()
        self.config: MatchConfig = self.matcher.config
        self.db = db or Database()
        self.table_name = table_name
        self._next_id = 0
        #: id -> phoneme tuple (parsed once at load).
        self._phonemes = PhonemeStore(self.matcher.costs)
        #: id -> lowercase language.
        self._languages: dict[int, str] = {}
        self._sources: dict[str, CandidateSource] = {}
        self.db.create_table(
            self.table_name,
            [
                Column("id", SqlType.INTEGER, nullable=False),
                Column("name", SqlType.TEXT, nullable=False),
                Column("language", SqlType.TEXT, nullable=False),
                Column("tag", SqlType.INTEGER),
                Column("pname", SqlType.TEXT, nullable=False),
                Column("plen", SqlType.INTEGER, nullable=False),
            ],
        )
        self.db.create_index(
            f"idx_{self.table_name}_id", self.table_name, "id"
        )

    # -------------------------------------------------------------- load

    def add(
        self,
        name: str,
        language: str,
        tag: int | None = None,
        *,
        ipa: str | None = None,
    ) -> int:
        """Add one name; returns its id.

        ``ipa`` overrides the TTP conversion (used when loading datasets
        with precomputed transcriptions).
        """
        if ipa is None:
            phonemes = self.matcher.registry.transform(name, language)
        else:
            phonemes = parse_ipa(ipa)
        if not phonemes:
            raise DatasetError(
                f"name {name!r} ({language}) has an empty transcription"
            )
        record_id = self._next_id
        self._next_id += 1
        language = language.lower()
        self.db.insert(
            self.table_name,
            (
                record_id,
                name,
                language,
                tag,
                format_phonemes(phonemes),
                len(phonemes),
            ),
        )
        self._phonemes[record_id] = phonemes
        self._languages[record_id] = language
        for source in self._sources.values():
            source.add(record_id, phonemes)
        return record_id

    def add_many(self, entries) -> list[int]:
        """Bulk add of ``(name, language[, tag])`` tuples."""
        ids = []
        for entry in entries:
            if len(entry) == 2:
                name, language = entry
                tag = None
            else:
                name, language, tag = entry
            ids.append(self.add(name, language, tag))
        return ids

    # ------------------------------------------------------------ access

    def __len__(self) -> int:
        return len(self.db.table(self.table_name))

    def record(self, record_id: int) -> NameRecord:
        """Fetch one record by id (via the id index)."""
        tree = self.db.index(f"idx_{self.table_name}_id").tree
        rowids = tree.search(record_id)
        if not rowids:
            raise DatasetError(f"no name with id {record_id}")
        row = self.db.table(self.table_name).fetch(rowids[0])
        return self._to_record(row)

    def records(self) -> list[NameRecord]:
        """All records in id order."""
        return [
            self._to_record(row)
            for row in self.db.table(self.table_name).rows()
        ]

    @staticmethod
    def _to_record(row: tuple) -> NameRecord:
        return NameRecord(
            id=row[0], name=row[1], language=row[2], tag=row[3], ipa=row[4]
        )

    def phonemes_of(self, record_id: int) -> PhonemeString:
        return self._phonemes[record_id]

    def language_of(self, record_id: int) -> str:
        return self._languages[record_id]

    def ids(self) -> list[int]:
        """Every record id, ascending."""
        return sorted(self._phonemes)

    def source(self, name: str) -> CandidateSource:
        """The catalog's candidate source ``name`` (see ``SOURCES``)."""
        source = self._sources.get(name)
        if source is None:
            source = SOURCES[name](self.config)
            source.add_many(self._phonemes.items())
            self._sources[name] = source
        return source

    def verify(
        self, query_phonemes: PhonemeString, ids: list[int]
    ) -> list[int]:
        """The ``ids`` that match the query (the one verifier)."""
        return self._phonemes.verify(
            query_phonemes, ids, self.config.threshold
        )


class Strategy(abc.ABC):
    """Common interface of the execution strategies."""

    name: str = "strategy"

    def __init__(self, catalog: NameCatalog):
        self.catalog = catalog
        self.matcher = catalog.matcher
        self.config = catalog.config
        self.last_stats = StrategyStats()

    @abc.abstractmethod
    def select(
        self,
        query: str,
        language: str = "english",
        languages: tuple[str, ...] = (),
    ) -> list[NameRecord]:
        """All stored names that LexEQUAL-match ``query``."""

    @abc.abstractmethod
    def join(
        self, *, cross_language_only: bool = True
    ) -> list[tuple[NameRecord, NameRecord]]:
        """Self equi-join: pairs of matching names (id_left < id_right).

        ``cross_language_only`` keeps only pairs in different languages,
        as the paper's join query does (``B1.Language <> B2.Language``).
        """

    # Shared helpers -----------------------------------------------------

    def _finish(self, stats: StrategyStats) -> None:
        """Record ``stats`` and publish them to the metrics registry.

        Counters are cumulative across invocations under
        ``strategy.<name>.*``; per-invocation numbers stay available in
        :attr:`last_stats`.
        """
        self.last_stats = stats
        if obs.is_enabled():
            prefix = f"strategy.{self.name}"
            obs.incr(f"{prefix}.invocations")
            obs.incr(f"{prefix}.rows_considered", stats.rows_considered)
            obs.incr(
                f"{prefix}.candidates_after_filters",
                stats.candidates_after_filters,
            )
            obs.incr(f"{prefix}.udf_calls", stats.udf_calls)
            obs.incr(f"{prefix}.results", stats.results)

    def _query_phonemes(self, query: str, language: str) -> PhonemeString:
        return self.matcher.registry.transform(query, language)

    def _language_ok(
        self, record_language: str, languages: tuple[str, ...]
    ) -> bool:
        return not languages or record_language in {
            lang.lower() for lang in languages
        }


class NaiveUdfStrategy(Strategy):
    """Full scan / nested-loop join invoking the full DP on every row.

    This is the paper's unoptimized UDF deployment (Table 1): the
    "orders of magnitude slower" baseline.  The per-row work is the full
    O(n·m) dynamic program of Figure 8 — deliberately *not* the banded
    variant, to mirror the PL/SQL implementation.
    """

    name = "naive-udf"

    def select(
        self,
        query: str,
        language: str = "english",
        languages: tuple[str, ...] = (),
    ) -> list[NameRecord]:
        stats = StrategyStats()
        query_phonemes = self._query_phonemes(query, language)
        costs = self.matcher.costs
        threshold = self.config.threshold
        results = []
        for row in self.catalog.db.table(self.catalog.table_name).rows():
            stats.rows_considered += 1
            if not self._language_ok(row[2], languages):
                continue
            phonemes = self.catalog.phonemes_of(row[0])
            stats.udf_calls += 1
            budget = threshold * min(len(query_phonemes), len(phonemes))
            if edit_distance(query_phonemes, phonemes, costs) <= budget:
                results.append(NameCatalog._to_record(row))
        stats.candidates_after_filters = stats.udf_calls
        stats.results = len(results)
        self._finish(stats)
        return results

    def join(
        self, *, cross_language_only: bool = True
    ) -> list[tuple[NameRecord, NameRecord]]:
        stats = StrategyStats()
        rows = list(self.catalog.db.table(self.catalog.table_name).rows())
        costs = self.matcher.costs
        threshold = self.config.threshold
        results = []
        for i, row_a in enumerate(rows):
            phonemes_a = self.catalog.phonemes_of(row_a[0])
            for row_b in rows[i + 1 :]:
                stats.rows_considered += 1
                if cross_language_only and row_a[2] == row_b[2]:
                    continue
                phonemes_b = self.catalog.phonemes_of(row_b[0])
                stats.udf_calls += 1
                budget = threshold * min(len(phonemes_a), len(phonemes_b))
                if edit_distance(phonemes_a, phonemes_b, costs) <= budget:
                    results.append(
                        (
                            NameCatalog._to_record(row_a),
                            NameCatalog._to_record(row_b),
                        )
                    )
        stats.candidates_after_filters = stats.udf_calls
        stats.results = len(results)
        self._finish(stats)
        return results


class FilteredStrategy(Strategy):
    """A candidate source, the language filter, then the one verifier.

    ``select`` verifies the query's candidates; ``join`` probes with
    every stored string, keeps candidates with a larger id (each pair
    once), and verifies them the same way.  Verified matches are exact,
    so a lossless source returns exactly :class:`NaiveUdfStrategy`'s
    results and a lossy one a subset of them.  A query the source
    cannot encode is verified against every row.
    """

    def __init__(self, catalog: NameCatalog, source: CandidateSource):
        super().__init__(catalog)
        self.source = source

    def _candidates(self, query_phonemes: PhonemeString) -> list[int]:
        keys = self.source.candidates(query_phonemes, self.config)
        return self.catalog.ids() if keys is None else keys

    def select(
        self,
        query: str,
        language: str = "english",
        languages: tuple[str, ...] = (),
    ) -> list[NameRecord]:
        catalog = self.catalog
        stats = StrategyStats(rows_considered=len(catalog))
        query_phonemes = self._query_phonemes(query, language)
        keys = self._candidates(query_phonemes)
        if languages:
            wanted = {lang.lower() for lang in languages}
            keys = [k for k in keys if catalog.language_of(k) in wanted]
        stats.candidates_after_filters = stats.udf_calls = len(keys)
        results = [
            catalog.record(k) for k in catalog.verify(query_phonemes, keys)
        ]
        stats.results = len(results)
        self._finish(stats)
        return results

    def join(
        self, *, cross_language_only: bool = True
    ) -> list[tuple[NameRecord, NameRecord]]:
        catalog = self.catalog
        n = len(catalog)
        stats = StrategyStats(rows_considered=n * (n - 1) // 2)
        results = []
        for id_a in catalog.ids():
            phonemes_a = catalog.phonemes_of(id_a)
            language_a = catalog.language_of(id_a)
            keys = [
                k
                for k in self._candidates(phonemes_a)
                if k > id_a
                and not (
                    cross_language_only
                    and catalog.language_of(k) == language_a
                )
            ]
            stats.candidates_after_filters += len(keys)
            matched = catalog.verify(phonemes_a, keys)
            if matched:
                record_a = catalog.record(id_a)
                results.extend((record_a, catalog.record(k)) for k in matched)
        stats.udf_calls = stats.candidates_after_filters
        stats.results = len(results)
        self._finish(stats)
        return results


class QGramStrategy(FilteredStrategy):
    """Length + count + position filters over q-gram postings (Fig. 14)."""

    name = "qgram"

    def __init__(self, catalog: NameCatalog):
        super().__init__(catalog, catalog.source("qgram"))


class PhoneticIndexStrategy(FilteredStrategy):
    """Grouped phoneme string identifier probe (Fig. 15).

    The fastest strategy, with the paper's caveat: only candidates whose
    *every* phoneme falls in the same cluster as the query's (and whose
    length matches) are reachable, so cross-cluster near-matches are
    false-dismissed (measured at 4–5% in the paper, reproduced by
    ``benchmarks/bench_table3_phonetic_index.py``).
    """

    name = "phonetic-index"

    def __init__(self, catalog: NameCatalog):
        super().__init__(catalog, catalog.source("index"))


class AnnPrefilterStrategy(FilteredStrategy):
    """Articulatory-embedding radius prefilter (:class:`AnnSource`).

    Lossy at the default admission radius (recall pinned by the quality
    harness); with ``lossless=True`` the radius uses the embedding's
    proven lower-bound constant, and results equal naive's exactly.
    """

    name = "ann-prefilter"

    def __init__(self, catalog: NameCatalog, *, lossless: bool = False):
        super().__init__(catalog, catalog.source("ann"))
        self.lossless = lossless

    def _candidates(self, query_phonemes: PhonemeString) -> list[int]:
        keys = self.source.candidates(
            query_phonemes, self.config, lossless=self.lossless
        )
        if keys is None:
            obs.incr("ann.prefilter.fallback_scans")
            return self.catalog.ids()
        return keys

    def select(
        self,
        query: str,
        language: str = "english",
        languages: tuple[str, ...] = (),
    ) -> list[NameRecord]:
        results = super().select(query, language, languages)
        if obs.is_enabled():
            obs.incr("ann.prefilter.queries")
            obs.incr(
                "ann.prefilter.candidates",
                self.last_stats.candidates_after_filters,
            )
            obs.incr("ann.prefilter.verified_matches", len(results))
        return results


class ExactStrategy(Strategy):
    """Native lexicographic equality — Table 1's ``= Operator`` rows.

    Shown only to calibrate how much slower approximate matching is; it
    cannot match across scripts at all (the paper's point).
    """

    name = "exact"

    def select(
        self,
        query: str,
        language: str = "english",
        languages: tuple[str, ...] = (),
    ) -> list[NameRecord]:
        stats = StrategyStats()
        results = []
        for row in self.catalog.db.table(self.catalog.table_name).rows():
            stats.rows_considered += 1
            if row[1] == query and self._language_ok(row[2], languages):
                results.append(NameCatalog._to_record(row))
        stats.results = len(results)
        self._finish(stats)
        return results

    def join(
        self, *, cross_language_only: bool = True
    ) -> list[tuple[NameRecord, NameRecord]]:
        stats = StrategyStats()
        by_name: dict[str, list[tuple]] = {}
        for row in self.catalog.db.table(self.catalog.table_name).rows():
            stats.rows_considered += 1
            by_name.setdefault(row[1], []).append(row)
        results = []
        for rows in by_name.values():
            if len(rows) < 2:
                continue
            rows.sort(key=lambda row: row[0])
            for i, row_a in enumerate(rows):
                for row_b in rows[i + 1 :]:
                    if cross_language_only and row_a[2] == row_b[2]:
                        continue
                    results.append(
                        (
                            NameCatalog._to_record(row_a),
                            NameCatalog._to_record(row_b),
                        )
                    )
        stats.results = len(results)
        self._finish(stats)
        return results


# ---------------------------------------------------------------- choice

#: Cost-model strategy name -> executable strategy class.
STRATEGY_CLASSES: dict[str, type[Strategy]] = {
    "naive": NaiveUdfStrategy,
    "qgram": QGramStrategy,
    "index": PhoneticIndexStrategy,
    "ann": AnnPrefilterStrategy,
}


@dataclass
class StrategyChoice:
    """Outcome of cost-based strategy selection.

    ``strategy`` is ready to run; ``estimate`` is the winning
    :class:`~repro.minidb.cost.StrategyEstimate`; ``estimates`` holds
    every considered alternative (for EXPLAIN-style reporting and the
    cost-model test suite).
    """

    strategy: Strategy
    estimate: object
    estimates: list

    @property
    def name(self) -> str:
        return self.estimate.strategy


def choose_strategy(
    catalog: NameCatalog,
    query: str,
    language: str = "english",
    *,
    allow_lossy: bool = False,
    available: tuple[str, ...] | None = None,
) -> StrategyChoice:
    """Pick the cheapest execution strategy for one selection query.

    Estimates every candidate strategy with :mod:`repro.minidb.cost`,
    feeding it each source's measured selectivity for this very query
    (:func:`repro.core.sources.cost_inputs`), then instantiates the
    winner.  The lossy sources (``index``, ``ann``) may false-dismiss,
    so they are only eligible under ``allow_lossy`` — exactly the
    planner's rule.  ``available`` restricts the field.
    """
    from repro.minidb import cost

    if available is None:
        available = tuple(STRATEGY_CLASSES)
    query_phonemes = catalog.matcher.registry.transform(query, language)
    rows = len(catalog)
    sources = {
        name: catalog.source(name) for name in available if name in SOURCES
    }
    estimates = cost.estimate_strategies(
        rows=rows,
        query_len=len(query_phonemes),
        avg_plen=(
            sum(map(len, catalog._phonemes.values())) / rows if rows else 1.0
        ),
        available=available,
        **cost_inputs(sources, [query_phonemes], catalog.config),
    )
    winner = cost.choose(estimates, allow_lossy=allow_lossy)
    obs.incr(f"strategy.choice.{winner.strategy}")
    return StrategyChoice(
        STRATEGY_CLASSES[winner.strategy](catalog), winner, estimates
    )
