"""The three workloads: set up, measure, and check one run each.

* ``select-sql-10k`` — the paper's §5 selection through in-process SQL
  (``Database.execute``) over a 10k-row LANGTEXT table, classical cost
  configuration, ``auto`` accelerator after ANALYZE (as ``lexequal
  init`` builds it).  Closed loop, one caller.  Stresses q-gram
  candidate generation in ``core.engine``; the UDF recheck is small.
* ``join-crossscript-1500`` — the paper's cross-language self-join through
  the Strategy API: ``ParallelStrategy(workers=2)`` over a 1,500-row
  ``NameCatalog``, default clustered costs.  Batch: one warm-up join,
  then back-to-back timed joins.
  Almost all time is pool verification; no SQL, no candidate filter, no
  TTP, so it bypasses the ``core.engine``/``minidb``/``ttp`` layers.
* ``serve-mixed-600`` — ``lexequal serve --data-dir`` as a subprocess,
  default config, 90% selects + 10% single-row INSERTs (fsync'd WAL).
  Open loop at a fixed, evenly paced rate over two connections for the first
  half of the run, then a closed loop over the same two connections for
  throughput.  Here the scalar
  UDF recheck dominates, and the server, WAL and ``on_insert`` paths run.

Each run sets up ``Scale.setups`` times from scratch (TTP cache cleared)
and reports the median, then measures for ``seconds``, then checks every
answer with :mod:`oracle` outside the timed window.
"""

from __future__ import annotations

import gc
import itertools
import os
import random
import resource
import select
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

# storage.open_database and engine.create_phonetic_accelerator are
# trace targets, called through their modules so that a traced run
# reaches the wrappers spans.install puts there.
from repro import obs, storage
from repro.core import LexEqualMatcher, MatchConfig, NameCatalog, engine
from repro.core.integration import install_lexequal
from repro.errors import ReproError
from repro.minidb.catalog import Database
from repro.minidb.schema import Column
from repro.minidb.values import LangText, SqlType
from repro.parallel.strategy import ParallelStrategy
from repro.server.client import LexEqualClient

import spans
from inputs import Insert, MixedStream, QueryStream, make_dataset, paced_arrivals
from oracle import JoinOracle, SelectOracle
from percentile import percentile

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

#: The paper's §5 classical configuration (unit costs, threshold 0.25).
PERF_CONFIG = MatchConfig(
    threshold=0.25,
    intra_cluster_cost=1.0,
    weak_indel_cost=1.0,
    vowel_cross_cost=1.0,
)
THRESHOLD = 0.25
JOIN_WORKERS = 2

#: serve-mixed load, calibrated once and frozen: the open-loop rate
#: (requests/s) is about a quarter of the measured two-connection
#: capacity, so the p90 stays far inside the 500 ms limit (SLO) with
#: zero failures.
SERVE_RATE = 30.0
SERVE_CONNECTIONS = 2
SERVE_INSERT_SHARE = 0.10
#: Share of the run spent in the open loop; the rest is the closed loop.
SERVE_OPEN_SHARE = 0.5
#: Sampled answers whose recall is checked against a full oracle scan.
RECALL_QUERIES = 8
RECALL_PAIRS = 2_000


@dataclass(frozen=True)
class Scale:
    select_rows: int
    join_rows: int
    serve_rows: int
    setups: int


FULL = Scale(select_rows=10_000, join_rows=1_500, serve_rows=600, setups=5)
#: ``--smoke``: the same code at sizes that run in seconds.
SMOKE = Scale(select_rows=600, join_rows=240, serve_rows=300, setups=1)


@dataclass
class Result:
    """What one workload run measured and checked."""

    setup_s: list[float] = field(default_factory=list)
    #: ``(start, end)`` of each operation whose latency is reported;
    #: open-loop requests start when they were due.
    latency: list[tuple[float, float]] = field(default_factory=list)
    #: ``(start, end)`` of each operation of the throughput window.
    throughput: list[tuple[float, float]] = field(default_factory=list)
    peak_rss_mb: float = 0.0
    attempted: int = 0
    failed: int = 0
    #: First few failure descriptions, for the result file.
    failures: list[str] = field(default_factory=list)
    #: Per-layer metrics ``name -> (value, samples)`` (traced runs).
    layers: dict = field(default_factory=dict)
    #: Spans recorded per span name, and the spans (traced runs).
    span_counts: dict = field(default_factory=dict)
    span_records: list = field(default_factory=list)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(message)


def _self_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _require_untraced(tracer) -> None:
    if tracer is None and obs.is_enabled():
        raise RuntimeError("obs is enabled in an untraced run")


class _Ops:
    """Runs timed in-process operations, tracing every other one.

    Interleaving traced and untraced operations gives the tracing
    overhead from one run, on the same mix, with the same cache state.
    """

    def __init__(self, tracer):
        self.tracer = tracer
        self.traced_s: list[float] = []
        self.untraced_s: list[float] = []

    def run(self, index: int, fn):
        traced = self.tracer is not None and index % 2 == 0
        start = time.perf_counter()
        try:
            if traced:
                return self.tracer.record(spans.OP_SPAN, "op", fn)
            return fn()
        finally:
            elapsed = time.perf_counter() - start
            (self.traced_s if traced else self.untraced_s).append(elapsed)

    def overhead(self) -> float:
        if not self.traced_s or not self.untraced_s:
            return 0.0
        traced = statistics.fmean(self.traced_s)
        return traced / statistics.fmean(self.untraced_s) - 1.0


def _in_process_layers(result, tracer, ops: _Ops, table_rows, results) -> None:
    records = tracer.records("bench")
    op_records = [r for r in records if r["phase"] == "op"]
    result.layers = spans.layer_metrics(
        [r for r in records if r["phase"] == "setup"],
        op_records,
        n_ops=len(ops.traced_s),
        unattributed=spans.unattributed(op_records),
        counters=tracer.counters("op"),
        table_rows=table_rows,
        results=results,
        overhead=ops.overhead(),
    )
    result.span_counts = spans.span_counts(records)
    result.span_records = records


def _setups(result: Result, count: int, tracer, build, close):
    """Set up ``count`` times; the last one is kept (and traced)."""
    kept = None
    for index in range(count):
        if kept is not None:
            close(kept)
            kept = None
            gc.collect()
        start = time.perf_counter()
        try:
            if tracer is not None and index == count - 1:
                kept = tracer.record(spans.SETUP_SPAN, "setup", build)
            else:
                kept = build()
        finally:
            result.setup_s.append(time.perf_counter() - start)
    return kept


# ------------------------------------------------------------------ select


def _build_select_db(rows, matcher) -> Database:
    matcher.registry.clear_cache()
    db = Database()
    install_lexequal(db, matcher)
    db.create_table(
        "names",
        [
            Column("id", SqlType.INTEGER, nullable=False),
            Column("name", SqlType.LANGTEXT, nullable=False),
            Column("language", SqlType.TEXT, nullable=False),
        ],
    )
    with db.transaction():
        for row_id, item in enumerate(rows):
            db.insert(
                "names",
                (row_id, LangText(item.name, item.language), item.language),
            )
    engine.create_phonetic_accelerator(db, "names", "name", matcher, method="auto")
    db.analyze()
    return db


def _check_selects(result, oracle, answers, rng) -> None:
    """Precision for every answer, consistency per query, sampled recall."""
    verdicts: dict = {}
    for query, ids in answers:
        key = (query, tuple(sorted(ids)))
        if query not in verdicts:
            wrong = oracle.wrong_rows(query, ids)
            verdicts[query] = (key, wrong)
            if wrong:
                result.fail(f"{query}: wrong rows {wrong[:5]}")
        elif verdicts[query][0] != key:
            result.fail(f"{query}: answer changed between repeats")
    sample = rng.sample(sorted(verdicts, key=repr), min(RECALL_QUERIES, len(verdicts)))
    for query in sample:
        (_query, ids), _wrong = verdicts[query]
        missing = oracle.expected(query) - set(ids)
        if missing:
            result.fail(f"{query}: missed true matches {sorted(missing)[:5]}")


def select_workload(seed: int, seconds: float, scale: Scale, tracer) -> Result:
    result = Result()
    dataset = make_dataset(seed, scale.select_rows)
    stream = QueryStream(seed, dataset)
    matcher = LexEqualMatcher(PERF_CONFIG)
    db = _setups(
        result,
        scale.setups,
        tracer,
        lambda: _build_select_db(dataset.rows, matcher),
        lambda _db: None,
    )
    _require_untraced(tracer)
    ops = _Ops(tracer)
    answers = []
    traced_rows = 0
    start = time.perf_counter()
    index = 0
    while time.perf_counter() - start < seconds:
        query = stream.next()
        sql = query.sql(THRESHOLD)
        t0 = time.perf_counter()
        try:
            rows = ops.run(index, lambda: db.execute(sql).rows)
        except Exception:  # noqa: BLE001 - a failed op is counted, not fatal
            result.fail(f"{query}: {traceback.format_exc(limit=3)}")
        else:
            ids = [row[0] for row in rows]
            answers.append((query, ids))
            if tracer is not None and index % 2 == 0:
                traced_rows += len(ids)
        result.latency.append((t0, time.perf_counter()))
        index += 1
    _require_untraced(tracer)
    result.throughput = result.latency
    result.attempted = index
    result.peak_rss_mb = _self_rss_mb()

    oracle = SelectOracle(matcher, THRESHOLD)
    for row_id, item in enumerate(dataset.rows):
        oracle.add(row_id, item.name, item.language)
    _check_selects(result, oracle, answers, random.Random(seed * 1009 + 5))

    if tracer is not None:
        _in_process_layers(result, tracer, ops, len(dataset.rows), traced_rows)
    return result


# -------------------------------------------------------------------- join


def _sibling_and_random_pairs(dataset, rng, count):
    """Recall probes: cross-script spellings of one name, then random."""
    pairs = set()
    for group in dataset.siblings:
        for i, a in enumerate(group):
            for b in group[i + 1 :]:
                pairs.add((min(a, b), max(a, b)))
    pairs = sorted(pairs)
    rng.shuffle(pairs)
    pairs = pairs[: count // 2]
    rows = dataset.rows
    while len(pairs) < count:
        a, b = rng.sample(range(len(rows)), 2)
        if rows[a].language != rows[b].language:
            pairs.append((min(a, b), max(a, b)))
    return pairs


def _check_joins(result, oracle, answers, probes) -> None:
    """Precision of every join, one answer across joins, sampled recall."""
    verified: dict[tuple, list] = {}
    for n, pairs in enumerate(answers):
        key = tuple(pairs)
        if key not in verified:
            verified[key] = oracle.wrong_pairs(pairs)
        if verified[key]:
            result.fail(f"join {n}: wrong pairs {verified[key][:5]}")
        elif pairs != answers[0]:
            result.fail(f"join {n}: pair set differs from join 0")
    if answers:
        found = set(answers[0])
        missing = [p for p in probes if p not in found and oracle.matches(*p)]
        if missing:
            result.fail(f"join: missed true pairs {missing[:5]}")


def join_workload(seed: int, seconds: float, scale: Scale, tracer) -> Result:
    result = Result()
    dataset = make_dataset(seed, scale.join_rows)
    matcher = LexEqualMatcher(MatchConfig())

    def build():
        matcher.registry.clear_cache()
        catalog = NameCatalog(matcher)
        for item in dataset.rows:
            catalog.add(item.name, item.language, ipa=item.ipa)
        strategy = ParallelStrategy(catalog, workers=JOIN_WORKERS)
        strategy.executor()
        return strategy

    strategy = None
    try:
        strategy = _setups(result, scale.setups, tracer, build, lambda s: s.close())
        # The pool's first join runs measurably slower (cold worker
        # caches); a user pays that once per pool, so it is not timed.
        strategy.join(cross_language_only=True)
        _require_untraced(tracer)
        ops = _Ops(tracer)
        answers = []
        start = time.perf_counter()
        index = 0
        while time.perf_counter() - start < seconds:
            t0 = time.perf_counter()
            try:
                pairs = ops.run(
                    index, lambda: strategy.join(cross_language_only=True)
                )
            except Exception:  # noqa: BLE001 - a failed op is counted
                result.fail(f"join {index}: {traceback.format_exc(limit=3)}")
            else:
                answers.append(sorted((a.id, b.id) for a, b in pairs))
            result.latency.append((t0, time.perf_counter()))
            index += 1
        _require_untraced(tracer)
    finally:
        if strategy is not None:
            strategy.close()
    result.throughput = result.latency
    result.attempted = index
    result.peak_rss_mb = _self_rss_mb()

    oracle = JoinOracle(
        matcher,
        THRESHOLD,
        ((i, item.language, item.ipa) for i, item in enumerate(dataset.rows)),
    )
    probes = _sibling_and_random_pairs(
        dataset, random.Random(seed * 1009 + 6), RECALL_PAIRS
    )
    _check_joins(result, oracle, answers, probes)

    if tracer is not None:
        _in_process_layers(result, tracer, ops, len(dataset.rows), 0)
    return result


# ------------------------------------------------------------------- serve


def _build_serve_dir(data_dir: Path, rows, matcher) -> None:
    """The data dir ``serve`` reads: TEXT names, auto accelerator, ANALYZE.

    Bulk-loaded like ``lexequal init``: no fsync per commit, one
    checkpoint at the end makes it durable.
    """
    matcher.registry.clear_cache()
    db = storage.open_database(str(data_dir), matcher=matcher, sync=False)
    try:
        install_lexequal(db, matcher)
        db.create_table(
            "names",
            [
                Column("id", SqlType.INTEGER, nullable=False),
                Column("name", SqlType.TEXT, nullable=False),
            ],
        )
        with db.transaction():
            for row_id, item in enumerate(rows):
                db.insert("names", (row_id, item.name))
        engine.create_phonetic_accelerator(db, "names", "name", matcher, method="auto")
        db.analyze()
        db.checkpoint()
    finally:
        db.storage.close()


class _Server:
    """One ``lexequal serve --data-dir`` subprocess."""

    READY_TIMEOUT_S = 60.0

    def __init__(self, data_dir: Path, spans_path: Path | None):
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        serve = ["serve", "--data-dir", str(data_dir), "--port", "0"]
        if spans_path is None:
            argv = [sys.executable, "-m", "repro.cli", *serve]
        else:
            launcher = str(HERE / "serve_traced.py")
            argv = [sys.executable, launcher, str(spans_path), *serve]
        self.proc = subprocess.Popen(
            argv, stdout=subprocess.PIPE, text=True, env=env, cwd=str(ROOT)
        )
        self.port = self._await_ready()

    def _await_ready(self) -> int:
        ready, _, _ = select.select([self.proc.stdout], [], [], self.READY_TIMEOUT_S)
        line = self.proc.stdout.readline() if ready else ""
        if not line.startswith("listening on "):
            self.stop()
            raise RuntimeError(f"server did not become ready: {line!r}")
        return int(line.strip().rsplit(":", 1)[1])

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def signal(self, signum) -> None:
        self.proc.send_signal(signum)

    def stop(self) -> None:
        """SIGTERM (graceful drain), then wait; kill if it hangs."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()


@dataclass(frozen=True)
class _Sent:
    op: object
    due: float
    sent: float
    done: float
    #: Row ids a select returned; None for inserts and errors.
    rows: list | None
    error: str | None


class _LoadGen:
    """Sends one op stream over several connections, timing each op.

    With ``due`` times (open loop) an op waits for its due time, and its
    latency counts from then, so a stall also delays the ops queued
    behind it; without (closed loop) each connection sends its next op
    as soon as the previous reply arrives, until ``until``.
    """

    def __init__(self, next_op, due=None, until=None):
        self.next_op = next_op
        self.due = due
        self.until = until
        self.lock = threading.Lock()
        self.index = 0
        self.records: list[_Sent] = []

    def _claim(self):
        with self.lock:
            if self.due is not None:
                if self.index >= len(self.due):
                    return None
                due = self.due[self.index]
            elif time.perf_counter() >= self.until:
                return None
            else:
                due = None
            self.index += 1
            return self.next_op(), due

    def _connection(self, client: LexEqualClient) -> None:
        while (claimed := self._claim()) is not None:
            op, due = claimed
            if due is not None:
                time.sleep(max(0.0, due - time.perf_counter()))
            sent = time.perf_counter()
            rows = error = None
            try:
                if isinstance(op, Insert):
                    client.query(op.sql())
                else:
                    reply = client.query(op.sql(THRESHOLD))
                    rows = [row[0] for row in reply["rows"]]
            except ReproError as exc:
                error = f"{type(exc).__name__}: {exc}"
            done = time.perf_counter()
            self.records.append(
                _Sent(op, sent if due is None else due, sent, done, rows, error)
            )

    def run(self, clients) -> "_LoadGen":
        threads = [
            threading.Thread(target=self._connection, args=(client,))
            for client in clients
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return self


@dataclass
class _ServeWindow:
    """What the load generator saw: open loop, closed loop, recall."""

    open_loop: _LoadGen
    open_start: float
    open_end: float
    #: ``(generator, seconds)`` per closed-loop part; traced runs have
    #: two, recorded by the server and not.
    closed: list
    #: Server obs counter deltas over the open loop.
    counters: dict
    recall: list


def _drive_server(server, stream, seed, seconds, traced) -> _ServeWindow:
    open_s = seconds * SERVE_OPEN_SHARE
    closed_s = seconds - open_s
    clients = []
    try:
        for _ in range(SERVE_CONNECTIONS + 1):
            clients.append(LexEqualClient("127.0.0.1", server.port, timeout=60.0))
        control, load = clients[0], clients[1:]
        before = control.stats()["metrics"].get("counters", {})
        open_start = time.perf_counter()
        due = [open_start + t for t in paced_arrivals(SERVE_RATE, open_s)]
        open_loop = _LoadGen(stream.next, due=due).run(load)
        open_end = time.perf_counter()
        after = control.stats()["metrics"].get("counters", {})

        # A traced server stops recording halfway through the closed
        # loop: the two halves' throughput ratio is the tracing overhead.
        parts = 2 if traced else 1
        closed = []
        for part in range(parts):
            if part == 1:
                server.signal(signal.SIGUSR1)
            start = time.perf_counter()
            gen = _LoadGen(stream.next, until=start + closed_s / parts).run(load)
            closed.append((gen, time.perf_counter() - start))

        # Recall: sampled selects re-issued after the last write.
        answered = sorted(
            {
                r.op
                for gen in [open_loop, *(g for g, _ in closed)]
                for r in gen.records
                if r.rows is not None
            },
            key=repr,
        )
        rng = random.Random(seed * 1009 + 7)
        sample = rng.sample(answered, min(RECALL_QUERIES, len(answered)))
        recall = [
            (q, [row[0] for row in control.query(q.sql(THRESHOLD))["rows"]])
            for q in sample
        ]
    finally:
        for client in clients:
            client.close()
    counters = {name: after[name] - before.get(name, 0) for name in after}
    return _ServeWindow(open_loop, open_start, open_end, closed, counters, recall)


def serve_workload(
    seed: int, seconds: float, scale: Scale, tracer, work_dir: Path
) -> Result:
    result = Result()
    dataset = make_dataset(seed, scale.serve_rows)
    stream = MixedStream(seed, dataset, SERVE_INSERT_SHARE, first_id=len(dataset.rows))
    matcher = LexEqualMatcher(MatchConfig())
    server_spans = work_dir / "server-spans.ndjson"
    built = itertools.count()
    server = None

    def build():
        data_dir = work_dir / f"data-{next(built)}"
        _build_serve_dir(data_dir, dataset.rows, matcher)
        # Only the traced set-up (the last, kept one) starts the server
        # under the span wrappers.
        traced = tracer is not None and tracer.enabled
        return _Server(data_dir, server_spans if traced else None)

    try:
        server = _setups(result, scale.setups, tracer, build, lambda s: s.stop())
        _require_untraced(tracer)
        window = _drive_server(server, stream, seed, seconds, tracer is not None)
        result.peak_rss_mb = server.peak_rss_mb()
    finally:
        if server is not None:
            server.stop()
        for data_dir in work_dir.glob("data-*"):
            shutil.rmtree(data_dir, ignore_errors=True)
    _require_untraced(tracer)

    sent = window.open_loop.records + [r for g, _ in window.closed for r in g.records]
    result.latency = [(r.due, r.done) for r in window.open_loop.records]
    result.throughput = [(r.sent, r.done) for g, _ in window.closed for r in g.records]
    result.attempted = len(sent) + len(window.recall)
    _check_served(result, matcher, dataset, sent, window.recall)
    if tracer is not None:
        _serve_layers(result, tracer, server_spans, len(dataset.rows), window, sent)
    return result


def _check_served(result, matcher, dataset, sent, recall) -> None:
    """Every answer against the final table; the final table is known."""
    oracle = SelectOracle(matcher, THRESHOLD)
    for row_id, item in enumerate(dataset.rows):
        oracle.add(row_id, item.name, item.language)
    for r in sent:
        if r.error is not None:
            result.fail(f"{r.op}: {r.error}")
        elif isinstance(r.op, Insert):
            oracle.add(r.op.row_id, r.op.name, matcher.language_of(r.op.name))
    for r in sent:
        if r.rows is not None and (wrong := oracle.wrong_rows(r.op, r.rows)):
            result.fail(f"{r.op}: wrong rows {wrong[:5]}")
    for query, ids in recall:
        wrong = oracle.wrong_rows(query, ids)
        missing = oracle.expected(query) - set(ids)
        if wrong or missing:
            result.fail(f"{query}: wrong {wrong[:5]} missing {sorted(missing)[:5]}")


def _serve_layers(result, tracer, server_spans, table_rows, window, sent) -> None:
    server = spans.load(server_spans)
    bench = tracer.records("bench")
    setup = [r for r in bench if r["phase"] == "setup"]
    setup += [r for r in server if r["start"] < window.open_start]
    ops = [r for r in server if window.open_start <= r["start"] < window.open_end]
    run_sql = [r for r in ops if r["name"] == "server.run_sql"]
    open_loop = window.open_loop.records
    (on, on_s), (off, off_s) = window.closed
    writes = [
        r.done - r.due
        for r in open_loop
        if isinstance(r.op, Insert) and r.error is None
    ]
    rejected = [
        r for r in sent if r.error and ("overloaded" in r.error or "timeout" in r.error)
    ]
    late = [r.sent - r.due for r in open_loop]
    result.layers = spans.layer_metrics(
        setup,
        ops,
        n_ops=len(run_sql),
        # Client-side latency not spent inside QueryService.run_sql:
        # framing, network, event loop and worker-pool queueing.
        unattributed=1.0 - sum(r["end"] - r["start"] for r in run_sql)
        / sum(r.done - r.sent for r in open_loop),
        counters=window.counters,
        table_rows=table_rows,
        results=sum(len(r.rows) for r in open_loop if r.rows is not None),
        overhead=(len(off.records) / off_s) / (len(on.records) / on_s) - 1.0,
        server={
            "server.write_p50_ms": percentile(writes, 50) * 1e3 if writes else 0.0,
            "gen.late_ms.p99": percentile(late, 99) * 1e3,
            "server.rejected": float(len(rejected)),
        },
    )
    result.span_counts = spans.span_counts(bench + server)
    result.span_records = bench + server
