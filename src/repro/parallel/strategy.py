""":class:`ParallelStrategy` — the executor behind the Strategy interface.

Drops the sharded executor into every place that accepts a
:class:`~repro.core.strategies.Strategy`: the engine's accelerated
planner, the CLI, the query server's worker pool, and the benchmark
harness.  Match semantics are exactly :class:`NaiveUdfStrategy`'s —
same per-pair relative budget, same result ordering, same
``rows_considered`` accounting — only the evaluation path differs
(vectorized banded kernels over table shards instead of a scalar DP per
row).  The differential and snapshot suites assert the equivalence.
"""

from __future__ import annotations

from repro.core.strategies import (
    NameCatalog,
    NameRecord,
    Strategy,
    StrategyStats,
)
from repro.parallel.executor import ParallelMatchExecutor
from repro.parallel.table import EncodedNameTable


class ParallelStrategy(Strategy):
    """Sharded process-pool scan with banded batch kernels.

    ``workers`` defaults to the machine's CPU count; ``workers=1`` runs
    the same kernels inline (no pool) and is the fastest sequential
    scan.  The encoded table snapshot (and the pool) is built lazily on
    first use and rebuilt automatically when the catalog has grown.
    """

    name = "parallel"

    def __init__(
        self,
        catalog: NameCatalog,
        workers: int | None = None,
        start_method: str | None = None,
    ):
        super().__init__(catalog)
        self.workers = workers
        self._start_method = start_method
        self._executor: ParallelMatchExecutor | None = None
        self._snapshot_id = -1

    # ---------------------------------------------------------- lifecycle

    def executor(self) -> ParallelMatchExecutor:
        """The current executor, (re)built if the catalog changed."""
        if (
            self._executor is None
            or self._snapshot_id != self.catalog._next_id
        ):
            if self._executor is not None:
                self._executor.close()
            table = EncodedNameTable.from_catalog(self.catalog)
            self._executor = ParallelMatchExecutor(
                table,
                workers=self.workers,
                start_method=self._start_method,
            )
            self._snapshot_id = self.catalog._next_id
        return self._executor

    def close(self) -> None:
        """Release the worker pool (safe to call repeatedly)."""
        if self._executor is not None:
            self._executor.close()
            self._executor = None
            self._snapshot_id = -1

    def __enter__(self) -> ParallelStrategy:
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------ queries

    def select(
        self,
        query: str,
        language: str = "english",
        languages: tuple[str, ...] = (),
    ) -> list[NameRecord]:
        stats = StrategyStats()
        query_phonemes = self._query_phonemes(query, language)
        executor = self.executor()
        if executor.table.encode_query(query_phonemes) is None:
            # Out-of-table symbol (possible only for symbol sets
            # narrower than the inventory): verify every row instead.
            ids = [
                i
                for i in self.catalog.ids()
                if self._language_ok(self.catalog.language_of(i), languages)
            ]
            stats.rows_considered = len(self.catalog)
            stats.candidates_after_filters = stats.udf_calls = len(ids)
            ids = self.catalog.verify(query_phonemes, ids)
        else:
            ids, _dists = executor.match(
                query_phonemes, self.config.threshold, tuple(languages)
            )
            stats.rows_considered = executor.last_stats["rows"]
            stats.candidates_after_filters = executor.last_stats["candidates"]
            stats.udf_calls = executor.last_stats["candidates"]
        results = [self.catalog.record(int(i)) for i in ids]
        stats.results = len(results)
        self._finish(stats)
        return results

    def join(
        self, *, cross_language_only: bool = True
    ) -> list[tuple[NameRecord, NameRecord]]:
        stats = StrategyStats()
        executor = self.executor()
        ids_a, ids_b, _dists = executor.match_all_pairs(
            self.config.threshold,
            cross_language_only=cross_language_only,
        )
        results = [
            (self.catalog.record(int(a)), self.catalog.record(int(b)))
            for a, b in zip(ids_a, ids_b)
        ]
        stats.rows_considered = executor.last_stats["rows"]
        stats.candidates_after_filters = executor.last_stats["candidates"]
        stats.udf_calls = executor.last_stats["candidates"]
        stats.results = len(results)
        self._finish(stats)
        return results
