"""``repro.parallel`` — the process-pool sharded match executor.

The paper's Section 5 viability argument is that LexEQUAL matching must
stay cheap enough to run inside a DBMS over ~200k rows.  This package
closes the remaining gap between the pure-Python strategies and that
bar: it splits a :class:`~repro.core.strategies.NameCatalog`'s phoneme
table across N worker processes and evaluates each chunk with the
vectorized banded kernels of :mod:`repro.matching.batch`.

Design (DESIGN.md §9):

* **encode once, attach everywhere** — the :class:`EncodedNameTable`
  (CSR ``codes``/``offsets`` int arrays plus ids, lengths, language
  codes and the cost matrices) is a gather of the code columns the
  phoneme store encoded at insert, re-gathered after writes, and is
  published *once* into a ``multiprocessing.shared_memory`` segment
  (:mod:`repro.parallel.shm`).  Workers attach by name and build
  zero-copy numpy views — nothing table-sized is ever pickled or
  copy-on-write duplicated, under either start method;
* **warm pool, batched results** — a persistent worker pool serves
  every query: each query's rows split into equal contiguous chunks
  that workers claim from a shared atomic counter, so a slow worker
  just claims fewer; each worker returns one packed numpy buffer per
  query (ids, distances, counters), never per-pair pickles;
* **exact results** — the per-chunk kernel is
  :func:`~repro.matching.batch.batch_edit_distances_within_runs`
  (through ``executor._within``), a banded DP over the table's code
  column, bounded by the rows' stored class counts, that is
  bit-identical to the reference DP (differential suite), so
  :class:`ParallelStrategy` returns exactly the
  :class:`~repro.core.strategies.NaiveUdfStrategy` match set;
* **degrades to inline** — with ``workers <= 1`` no pool or segment is
  created and the same kernels run in-process, so the strategy is also
  the fastest *sequential* scan;
* **explicit lifecycle** — segments are unlinked on executor
  ``close()``, at interpreter exit, and on SIGTERM; any worker crash
  mid-query tears the pool down (and its segment stays owned by the
  parent, so nothing leaks in ``/dev/shm``).
"""

from repro.parallel.executor import ParallelMatchExecutor
from repro.parallel.table import EncodedNameTable
from repro.parallel.strategy import ParallelStrategy

__all__ = [
    "EncodedNameTable",
    "ParallelMatchExecutor",
    "ParallelStrategy",
]
