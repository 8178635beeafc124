""":class:`ParallelStrategy` — the executor behind the Strategy interface.

Drops the sharded executor into every place that accepts a
:class:`~repro.core.strategies.Strategy`: the engine's accelerated
planner, the CLI, the query server's worker pool, and the benchmark
harness.  Match semantics are exactly :class:`NaiveUdfStrategy`'s —
same per-pair relative budget, same result ordering, same
``rows_considered`` accounting — only the evaluation path differs
(vectorized banded kernels over row chunks instead of a scalar DP per
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
    scan.  The executor (table and pool) is built on first use; it
    re-gathers its table from the catalog's phoneme store after writes.
    """

    name = "parallel"

    def __init__(self, catalog: NameCatalog, workers: int | None = None):
        super().__init__(catalog)
        self.workers = workers
        self._executor: ParallelMatchExecutor | None = None

    # ---------------------------------------------------------- lifecycle

    def executor(self) -> ParallelMatchExecutor:
        """The executor, built on first use; it re-gathers its table
        itself after the catalog changes."""
        if self._executor is None:
            self._executor = ParallelMatchExecutor(
                EncodedNameTable.from_catalog(self.catalog),
                workers=self.workers,
            )
        return self._executor

    def close(self) -> None:
        """Release the worker pool (safe to call repeatedly)."""
        if self._executor is not None:
            self._executor.close()
            self._executor = None

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
        stats = StrategyStats(rows_considered=len(self.catalog))
        executor = self.executor()
        ids, _dists = executor.match(
            self._query_phonemes(query, language),
            self.config.threshold,
            tuple(languages),
        )
        stats.candidates_after_filters = executor.last_stats["candidates"]
        stats.udf_calls = stats.candidates_after_filters
        results = [self.catalog.record(i) for i in ids.tolist()]
        stats.results = len(results)
        self._finish(stats)
        return results

    def join(
        self, *, cross_language_only: bool = True
    ) -> list[tuple[NameRecord, NameRecord]]:
        n = len(self.catalog)
        stats = StrategyStats(rows_considered=n * (n - 1) // 2)
        executor = self.executor()
        ids_a, ids_b, _dists = executor.match_all_pairs(
            self.config.threshold, cross_language_only=cross_language_only
        )
        results = [
            (self.catalog.record(a), self.catalog.record(b))
            for a, b in zip(ids_a.tolist(), ids_b.tolist())
        ]
        stats.candidates_after_filters = executor.last_stats["candidates"]
        stats.udf_calls = stats.candidates_after_filters
        stats.results = len(results)
        self._finish(stats)
        return results
