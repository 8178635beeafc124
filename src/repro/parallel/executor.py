"""The shared-memory warm-pool match executor.

One :class:`ParallelMatchExecutor` owns an
:class:`~repro.parallel.table.EncodedNameTable` snapshot (re-gathered
from its phoneme store after any write to it), a shared memory segment
holding it, and a persistent pool of worker processes
that *attach* to the segment (zero-copy views) instead of inheriting
pickles.  The pool stays warm across queries: per query the parent
sends each worker one small task message and receives one packed
result buffer back, so IPC cost is O(workers + matches), independent
of table size.

Scheduling (DESIGN.md §9): a query covers ``rows`` rows — the table
for a select, its first ``len - 1`` rows (the join triangle's outer
rows) for a join.  The pool splits them into
``min(rows, CHUNKS_PER_WORKER * workers)`` equal contiguous row chunks
(:func:`_chunks`); every worker gets the same task and claims chunk
indices from a shared atomic counter until none are left.  A
straggler (CPU contention, a costly candidate mix) just claims fewer
chunks.

Failure semantics: a worker crash mid-query tears the pool down
(terminate + segment unlink) and raises
:class:`ParallelExecutionError`; the next query starts a fresh pool.  A
worker found dead *between* queries is respawned in place (it attaches
to the existing segment).  Cooperative deadlines are checked at
dispatch and while waiting for shard results; an expired deadline also
tears the pool down, because workers still computing the cancelled
epoch may not race the next query's claim counter.  Segment cleanup on
SIGTERM and interpreter exit is handled by :mod:`repro.parallel.shm`.

``workers <= 1`` (or a table of one row or fewer) runs the same shard
function inline over all ``rows`` at once — no pool, no segment, no
IPC, identical results: workers apply
the same per-pair budget ``threshold * min(|query|, |candidate|)`` as
the scalar strategies, and the kernel is bit-identical to the
reference DP.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import threading
import time
from dataclasses import dataclass

import numpy as np
from multiprocessing import connection

from repro import deadline, obs
from repro.core.sources import _encode
from repro.errors import DeadlineExceededError, ReproError
from repro.matching.batch import batch_edit_distances_within_runs
from repro.parallel import shm as shm_mod
from repro.parallel.table import EncodedNameTable

#: Row chunks per worker in a pooled query: enough that a worker
#: which falls behind cedes its share to the others.
CHUNKS_PER_WORKER = 4


class ParallelExecutionError(ReproError):
    """A shard task failed or the executor was used after close()."""


def _within(table, q, rows, threshold, counts) -> np.ndarray:
    """Distances from ``q`` to table ``rows`` within the per-pair budget
    ``threshold * min(|q|, |row|)``, bounded by the rows' stored class
    counts; codes are gathered only for the rows that survive."""
    return batch_edit_distances_within_runs(
        q,
        table.codes,
        table.offsets[:-1],
        table.lens,
        table.encoded,
        threshold * np.minimum(len(q), table.lens[rows]),
        rows,
        counts,
        table.class_counts,
        table.class_totals,
    )


def _match_shard_on(
    table,
    start: int,
    stop: int,
    q: np.ndarray,
    threshold: float,
    allowed: np.ndarray | None,
):
    """Match ``q`` against rows [start, stop); returns ids + distances."""
    rows = np.arange(start, stop)
    if allowed is not None:
        rows = rows[np.isin(table.lang_codes[start:stop], allowed)]
    counts = {"dp": 0}
    dists = _within(table, q, rows, threshold, counts)
    hit = np.isfinite(dists)
    return table.ids[rows[hit]], dists[hit], stop - start, counts["dp"]


def _join_shard_on(
    table,
    start: int,
    stop: int,
    threshold: float,
    cross_language_only: bool,
):
    """All matching pairs (i, j) with i in [start, stop) and j > i."""
    n = len(table.ids)
    ids_a: list[np.ndarray] = []
    ids_b: list[np.ndarray] = []
    dist_parts: list[np.ndarray] = []
    pairs = 0
    counts = {"dp": 0}
    for i in range(start, stop):
        rows = np.arange(i + 1, n)
        pairs += rows.size
        if cross_language_only:
            rows = rows[table.lang_codes[i + 1 :] != table.lang_codes[i]]
        if rows.size == 0:
            continue
        q = table.codes[table.offsets[i] : table.offsets[i + 1]]
        dists = _within(table, q, rows, threshold, counts)
        hit = np.isfinite(dists)
        if hit.any():
            matched = rows[hit]
            ids_a.append(np.full(len(matched), table.ids[i]))
            ids_b.append(table.ids[matched])
            dist_parts.append(dists[hit])
    empty = np.empty(0, dtype=np.int64)
    return (
        np.concatenate(ids_a) if ids_a else empty,
        np.concatenate(ids_b) if ids_b else empty,
        np.concatenate(dist_parts) if dist_parts else empty.astype(float),
        pairs,
        counts["dp"],
    )


# ------------------------------------------------------------- workers


def _chunks(rows: int, workers: int) -> list[tuple[int, int]]:
    """``min(rows, CHUNKS_PER_WORKER * workers)`` equal contiguous row
    ranges covering [0, rows) exactly once."""
    count = min(rows, CHUNKS_PER_WORKER * workers)
    return [
        (rows * index // count, rows * (index + 1) // count)
        for index in range(count)
    ]


def _claim(counter) -> int:
    """Atomically claim the next chunk index."""
    with counter.get_lock():
        index = counter.value
        counter.value += 1
    return index


#: Shard kernel per task kind; every shard result is ``(arrays...,
#: rows, candidates)``, where ``candidates`` counts the pairs the
#: kernel ran its DP on.
_SHARDS = {"match": _match_shard_on, "join": _join_shard_on}


def _merge(parts: list[tuple]) -> tuple:
    """Shard results -> one: array fields concatenated, counts summed."""
    return tuple(
        np.concatenate(field)
        if isinstance(field[0], np.ndarray)
        else sum(field)
        for field in zip(*parts)
    )


def _worker_run(kind: str, table, counter, task) -> tuple:
    """One worker's share of a query: the chunks it claims from the
    shared counter, merged (an empty part when it claims none)."""
    chunks, *extra = task
    shard = _SHARDS[kind]
    parts = []
    while (index := _claim(counter)) < len(chunks):
        parts.append(shard(table, *chunks[index], *extra))
    return _merge(parts or [shard(table, 0, 0, *extra)])


def _worker_main(descriptor, counter, task_conn, result_conn, parent_pid) -> None:
    """Worker loop: attach once, serve tasks until EOF or parent death.

    The worker never owns the segment: it clears the (fork-inherited)
    live registry, resets SIGTERM to the default action, and only ever
    closes its own mapping.  Any deadline inherited from the parent
    (the pool may be started lazily inside a request's
    ``deadline_scope``) is disarmed — that deadline belongs to one
    parent request, not to every query this warm worker will ever
    serve; cancellation is enforced parent-side in ``_run_pool``.

    The idle wait polls with a timeout and watches ``parent_pid``: pipe
    EOF alone cannot signal parent death, because sibling workers hold
    fork-inherited copies of every earlier worker's write end — if the
    parent dies by signal (no atexit, daemon reaping never runs), the
    workers would otherwise keep each other's pipes open and block in
    ``recv()`` forever.
    """
    shm_mod._forget_all()
    deadline.clear()
    try:
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    except (ValueError, OSError):  # pragma: no cover
        pass
    table, attached = EncodedNameTable.attach(descriptor)
    try:
        while True:
            try:
                if not task_conn.poll(1.0):
                    if os.getppid() != parent_pid:
                        return  # orphaned: parent died without "stop"
                    continue
                message = task_conn.recv()
            except (EOFError, OSError):
                return
            kind = message[0]
            if kind == "stop":
                return
            _kind, epoch, task = message
            try:
                payload = _worker_run(kind, table, counter, task)
                result_conn.send((epoch, True, payload))
            except Exception as exc:
                result_conn.send(
                    (epoch, False, f"{type(exc).__name__}: {exc}")
                )
    finally:
        del table
        attached.close()


@dataclass
class _Worker:
    """Parent-side handle: process + its task/result pipe ends."""

    process: multiprocessing.process.BaseProcess
    task_conn: connection.Connection
    result_conn: connection.Connection

    def close(self) -> None:
        try:
            self.task_conn.close()
        except OSError:
            pass
        try:
            self.result_conn.close()
        except OSError:
            pass


# ------------------------------------------------------------ executor


class ParallelMatchExecutor:
    """Shards an :class:`EncodedNameTable` across a warm process pool."""

    def __init__(
        self,
        table: EncodedNameTable,
        workers: int | None = None,
        start_method: str | None = None,
    ):
        if workers is None:
            workers = os.cpu_count() or 1
        self.table = table
        self.workers = max(1, int(workers))
        self._start_method = start_method
        self._workers: list[_Worker] = []
        self._segment: shm_mod.SharedSegment | None = None
        self._descriptor = None
        self._ctx = None
        self._counter = None
        self._epoch = 0
        self._closed = False
        #: Work accounting of the most recent match()/match_all_pairs():
        #: ``rows`` scanned, ``candidates`` the pairs a DP ran on (past
        #: the kernel's length filter and class-count bound), and
        #: ``matches``.
        self.last_stats: dict[str, int] = {}
        if self._pooled():
            self._start_pool()

    def _pooled(self) -> bool:
        return self.workers > 1 and len(self.table) > 1

    # ---------------------------------------------------------- lifecycle

    @staticmethod
    def _default_start_method() -> str:
        """``fork`` only when it is safe: single-threaded parent.

        Forking a multi-threaded process can deadlock children on
        locks held by other threads at fork time (and is deprecated on
        Python 3.12+), and a server starts pools lazily from worker
        threads.  ``spawn`` is cheap here by design — nothing
        table-sized is pickled; workers attach to the shared segment.
        """
        methods = multiprocessing.get_all_start_methods()
        if "fork" in methods and threading.active_count() == 1:
            return "fork"
        return "spawn"

    def _start_pool(self) -> None:
        method = self._start_method or self._default_start_method()
        self._ctx = multiprocessing.get_context(method)
        shm_mod.install_signal_cleanup()
        self._segment, self._descriptor = self.table.share()
        self._counter = self._ctx.Value("q", 0)
        self._workers = []
        try:
            for index in range(self.workers):
                self._workers.append(self._spawn_worker(index))
        except BaseException:
            self._teardown_pool()
            raise
        obs.incr("parallel.pool_starts")
        obs.incr("parallel.segment_bytes", self._segment.nbytes)

    def _spawn_worker(self, index: int) -> _Worker:
        task_r, task_w = self._ctx.Pipe(duplex=False)
        result_r, result_w = self._ctx.Pipe(duplex=False)
        process = self._ctx.Process(
            target=_worker_main,
            args=(
                self._descriptor,
                self._counter,
                task_r,
                result_w,
                os.getpid(),
            ),
            name=f"repro-parallel-{index}",
            daemon=True,
        )
        process.start()
        task_r.close()
        result_w.close()
        return _Worker(process, task_w, result_r)

    def _teardown_pool(self) -> None:
        """Stop workers and unlink the segment (idempotent)."""
        for worker in self._workers:
            try:
                worker.task_conn.send(("stop",))
            except (OSError, ValueError):
                pass
        for worker in self._workers:
            worker.process.join(timeout=0.5)
            if worker.process.is_alive():
                worker.process.terminate()
                worker.process.join(timeout=1.0)
            worker.close()
        self._workers = []
        if self._segment is not None:
            self._segment.unlink()
            self._segment = None
        self._descriptor = None

    def close(self) -> None:
        """Shut down the worker pool and its segment (idempotent)."""
        self._closed = True
        self._teardown_pool()

    def __enter__(self) -> ParallelMatchExecutor:
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self):  # pragma: no cover - GC safety net
        try:
            self.close()
        except Exception:
            pass

    # ------------------------------------------------------------ dispatch

    def _ensure_pool(self) -> None:
        """(Re)establish the warm pool: fresh after teardown, healed
        in place when an idle worker died."""
        if not self._workers:
            self._start_pool()
            return
        for index, worker in enumerate(self._workers):
            if not worker.process.is_alive():
                worker.close()
                self._workers[index] = self._spawn_worker(index)
                obs.incr("parallel.worker_respawns")

    def _drain_stale(self) -> None:
        """Discard results from epochs no one is waiting for."""
        for worker in self._workers:
            try:
                while worker.result_conn.poll():
                    worker.result_conn.recv()
            except (EOFError, OSError):
                pass

    def _run_pool(self, kind: str, task: tuple) -> list:
        """One warm-pool round trip: dispatch ``task`` (the query's row
        chunks plus its shard arguments) to every worker, collect."""
        self._ensure_pool()
        self._drain_stale()
        with self._counter.get_lock():
            self._counter.value = 0
        self._epoch += 1
        epoch = self._epoch
        for worker in self._workers:
            try:
                worker.task_conn.send((kind, epoch, task))
            except (OSError, ValueError) as exc:
                self._teardown_pool()
                raise ParallelExecutionError(
                    f"worker pipe broke at dispatch: {exc}"
                ) from exc
        pending = {
            worker.result_conn: worker for worker in self._workers
        }
        results = []
        deadline_at = deadline.current()
        while pending:
            timeout = None
            if deadline_at is not None:
                timeout = deadline_at - time.monotonic()
                if timeout <= 0:
                    self._teardown_pool()
                    obs.incr("parallel.deadline_cancels")
                    raise DeadlineExceededError(
                        "request deadline exceeded while waiting for "
                        "parallel shards"
                    )
            sentinels = {
                worker.process.sentinel: worker
                for worker in pending.values()
            }
            ready = connection.wait(
                list(pending) + list(sentinels), timeout=timeout
            )
            for item in ready:
                if item in pending:
                    worker = pending[item]
                    try:
                        got_epoch, ok, payload = item.recv()
                    except (EOFError, OSError) as exc:
                        # A dead worker's pipe can report EOF before
                        # its sentinel fires: name the death either way.
                        worker.process.join(timeout=0.5)
                        code = worker.process.exitcode
                        self._teardown_pool()
                        if code is not None:
                            raise ParallelExecutionError(
                                f"worker died mid-query (exitcode {code})"
                            ) from exc
                        raise ParallelExecutionError(
                            f"worker result pipe broke: {exc}"
                        ) from exc
                    if got_epoch != epoch:
                        continue  # stale answer from a cancelled query
                    if not ok:
                        self._teardown_pool()
                        raise ParallelExecutionError(
                            f"shard execution failed: {payload}"
                        )
                    results.append(payload)
                    del pending[item]
                elif item in sentinels:
                    worker = sentinels[item]
                    if worker.result_conn in pending and not (
                        worker.result_conn.poll()
                    ):
                        code = worker.process.exitcode
                        self._teardown_pool()
                        raise ParallelExecutionError(
                            "worker died mid-query "
                            f"(exitcode {code})"
                        )
        return results

    def _guard(self) -> None:
        if self._closed:
            raise ParallelExecutionError("executor used after close()")
        deadline.check("parallel shard dispatch")

    def _current(self) -> EncodedNameTable:
        """The table, re-gathered from its store after any write to it.

        The one rebuild-on-write rule of the parallel path: a stale
        table's pool is torn down, and the next pooled query starts a
        fresh one over the new table.
        """
        table = self.table
        store = table.store
        if store is not None and store.writes != table.writes:
            self._teardown_pool()
            table = self.table = EncodedNameTable.from_store(
                store, table.language_of
            )
        return table

    # ------------------------------------------------------------- match

    def match(
        self,
        phonemes,
        threshold: float,
        languages: tuple[str, ...] = (),
    ) -> tuple[np.ndarray, np.ndarray]:
        """All (id, distance) pairs matching within the relative budget.

        Returns parallel arrays sorted by record id; decisions are
        identical to the sequential scan with the reference DP.  A query
        symbol outside the inventory raises
        :class:`~repro.errors.PhonemeError`.
        """
        self._guard()
        table = self._current()
        q = np.frombuffer(_encode(phonemes), np.uint8).astype(np.int64)
        allowed = table.language_codes_for(languages)
        if allowed is not None and allowed.size == 0:
            self.last_stats = {"rows": 0, "candidates": 0, "matches": 0}
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64)
        ids, dists = self._execute("match", (q, float(threshold), allowed))
        order = np.argsort(ids, kind="stable")
        return ids[order], dists[order]

    def match_all_pairs(
        self,
        threshold: float,
        *,
        cross_language_only: bool = True,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The self equi-join: (ids_a, ids_b, distances), a < b by row.

        Row order within the table is insertion order, so ``ids_a`` is
        always the smaller record id of the pair.
        """
        self._guard()
        self._current()
        ids_a, ids_b, dists = self._execute(
            "join", (float(threshold), bool(cross_language_only))
        )
        order = np.lexsort((ids_b, ids_a))
        return ids_a[order], ids_b[order], dists[order]

    def _execute(self, kind: str, extra: tuple) -> list:
        """One ``match`` or ``join`` over the table, on the pool or
        inline: the merged result arrays.  Work counts go to
        :attr:`last_stats` and the ``parallel.*`` counters."""
        n = len(self.table)
        rows = n if kind == "match" else max(n - 1, 0)
        with obs.timed(f"parallel.{kind}"):
            if self._pooled():
                chunks = _chunks(rows, self.workers)
                parts = self._run_pool(kind, (chunks,) + extra)
                deadline.check("parallel shard merge")
            else:
                chunks = [(0, rows)]
                parts = [_SHARDS[kind](self.table, 0, rows, *extra)]
        *arrays, scanned, candidates = _merge(parts)
        matches = len(arrays[0])
        self.last_stats = {
            "rows": scanned,
            "candidates": candidates,
            "matches": matches,
        }
        obs.incr(
            "parallel.queries" if kind == "match" else "parallel.join_queries"
        )
        obs.incr("parallel.shards", len(chunks))
        obs.incr("parallel.rows", scanned)
        obs.incr("parallel.candidates", candidates)
        obs.incr("parallel.matches", matches)
        return arrays
