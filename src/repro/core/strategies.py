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

Both filtered strategies are one :class:`FilteredStrategy` over a
candidate source of :mod:`repro.core.sources`: candidates, then the
language filter, then the one batch verifier, all in
:meth:`~repro.core.sources.KeyedPhonemes.matches`, the step the SQL
accelerator runs too.

Strategies run against a :class:`NameCatalog`, which keeps its records
in a list indexed by id and their phoneme strings, languages and
candidate sources in one :class:`~repro.core.sources.KeyedPhonemes`.
Strategies record how much work they did in :attr:`Strategy.last_stats`,
which the benchmark harness reports.  Which strategy is cheapest for a
query is the ``auto`` accelerator's decision
(:mod:`repro.core.engine`).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

from repro import obs
from repro.core.config import MatchConfig
from repro.core.matcher import LexEqualMatcher
from repro.core.sources import KeyedPhonemes
from repro.errors import DatasetError
from repro.matching.editdist import edit_distance
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

    Records live in a list indexed by id.  Their phoneme strings,
    languages and candidate sources live in :attr:`keyed`, the same
    :class:`~repro.core.sources.KeyedPhonemes` the SQL accelerator
    keeps per column.
    """

    def __init__(self, matcher: LexEqualMatcher | None = None):
        self.matcher = matcher or LexEqualMatcher()
        self.config: MatchConfig = self.matcher.config
        self.keyed = KeyedPhonemes(self.config, self.matcher.costs)
        self._records: list[NameRecord] = []

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
        record_id = len(self._records)
        language = language.lower()
        self.keyed.add(record_id, phonemes, language)
        self._records.append(
            NameRecord(
                record_id, name, language, tag, format_phonemes(phonemes)
            )
        )
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
        return len(self._records)

    def record(self, record_id: int) -> NameRecord:
        """Fetch one record by id."""
        if not 0 <= record_id < len(self._records):
            raise DatasetError(f"no name with id {record_id}")
        return self._records[record_id]

    def records(self) -> list[NameRecord]:
        """All records in id order."""
        return list(self._records)

    def phonemes_of(self, record_id: int) -> PhonemeString:
        return self.keyed.store[record_id]

    def language_of(self, record_id: int) -> str:
        return self._records[record_id].language

    def ids(self) -> list[int]:
        """Every record id, ascending."""
        return list(range(len(self._records)))


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
        for record in self.catalog.records():
            stats.rows_considered += 1
            if not self._language_ok(record.language, languages):
                continue
            phonemes = self.catalog.phonemes_of(record.id)
            stats.udf_calls += 1
            budget = threshold * min(len(query_phonemes), len(phonemes))
            if edit_distance(query_phonemes, phonemes, costs) <= budget:
                results.append(record)
        stats.candidates_after_filters = stats.udf_calls
        stats.results = len(results)
        self._finish(stats)
        return results

    def join(
        self, *, cross_language_only: bool = True
    ) -> list[tuple[NameRecord, NameRecord]]:
        stats = StrategyStats()
        records = self.catalog.records()
        costs = self.matcher.costs
        threshold = self.config.threshold
        results = []
        for i, record_a in enumerate(records):
            phonemes_a = self.catalog.phonemes_of(record_a.id)
            for record_b in records[i + 1 :]:
                stats.rows_considered += 1
                if (
                    cross_language_only
                    and record_a.language == record_b.language
                ):
                    continue
                phonemes_b = self.catalog.phonemes_of(record_b.id)
                stats.udf_calls += 1
                budget = threshold * min(len(phonemes_a), len(phonemes_b))
                if edit_distance(phonemes_a, phonemes_b, costs) <= budget:
                    results.append((record_a, record_b))
        stats.candidates_after_filters = stats.udf_calls
        stats.results = len(results)
        self._finish(stats)
        return results


class FilteredStrategy(Strategy):
    """A candidate source, the language filter, then the one verifier.

    ``select`` is :meth:`~repro.core.sources.KeyedPhonemes.matches` over
    the catalog's :attr:`source`; ``join`` probes the source with every
    stored string, keeps candidates with a larger id (each pair once),
    and verifies them the same way.  Verified matches are exact, so a
    lossless source returns exactly :class:`NaiveUdfStrategy`'s results
    and a lossy one a subset of them.
    """

    #: Name of the candidate source (see ``repro.core.sources.SOURCES``).
    source: str

    def __init__(self, catalog: NameCatalog):
        super().__init__(catalog)
        # Built here, not inside the first (timed) query.
        catalog.keyed.source(self.source)

    def select(
        self,
        query: str,
        language: str = "english",
        languages: tuple[str, ...] = (),
    ) -> list[NameRecord]:
        catalog = self.catalog
        stats = StrategyStats(rows_considered=len(catalog))
        ids, candidates = catalog.keyed.matches(
            self.source,
            self._query_phonemes(query, language),
            self.config.threshold,
            languages,
        )
        stats.candidates_after_filters = stats.udf_calls = candidates
        results = [catalog.record(k) for k in ids]
        stats.results = len(results)
        self._finish(stats)
        return results

    def join(
        self, *, cross_language_only: bool = True
    ) -> list[tuple[NameRecord, NameRecord]]:
        catalog = self.catalog
        keyed = catalog.keyed
        source = keyed.source(self.source)
        n = len(catalog)
        stats = StrategyStats(rows_considered=n * (n - 1) // 2)
        results = []
        for record_a in catalog.records():
            id_a = record_a.id
            phonemes_a = keyed.store[id_a]
            keys = [
                k
                for k in source.candidates(phonemes_a, self.config)
                if k > id_a
                and not (
                    cross_language_only
                    and keyed.languages[k] == record_a.language
                )
            ]
            stats.candidates_after_filters += len(keys)
            matched = keyed.store.verify(
                phonemes_a, keys, self.config.threshold
            )
            results.extend((record_a, catalog.record(k)) for k in matched)
        stats.udf_calls = stats.candidates_after_filters
        stats.results = len(results)
        self._finish(stats)
        return results


class QGramStrategy(FilteredStrategy):
    """Length + count + position filters over q-gram postings (Fig. 14)."""

    name = "qgram"
    source = "qgram"


class PhoneticIndexStrategy(FilteredStrategy):
    """Grouped phoneme string identifier probe (Fig. 15).

    The fastest strategy, with the paper's caveat: only candidates whose
    *every* phoneme falls in the same cluster as the query's (and whose
    length matches) are reachable, so cross-cluster near-matches are
    false-dismissed (measured at 4–5% in the paper, reproduced by
    ``benchmarks/bench_table3_phonetic_index.py``).
    """

    name = "phonetic-index"
    source = "index"


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
        for record in self.catalog.records():
            stats.rows_considered += 1
            if record.name == query and self._language_ok(
                record.language, languages
            ):
                results.append(record)
        stats.results = len(results)
        self._finish(stats)
        return results

    def join(
        self, *, cross_language_only: bool = True
    ) -> list[tuple[NameRecord, NameRecord]]:
        stats = StrategyStats()
        by_name: dict[str, list[NameRecord]] = {}
        for record in self.catalog.records():
            stats.rows_considered += 1
            by_name.setdefault(record.name, []).append(record)
        results = []
        for records in by_name.values():
            for i, record_a in enumerate(records):
                for record_b in records[i + 1 :]:
                    if (
                        cross_language_only
                        and record_a.language == record_b.language
                    ):
                        continue
                    results.append((record_a, record_b))
        stats.results = len(results)
        self._finish(stats)
        return results
