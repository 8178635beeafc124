"""Per-layer spans recorded from the benchmark's side of each layer.

:func:`install` rebinds each target function object in three places —
its defining module, every ``repro.*`` module global bound to that same
object (which catches ``from … import edit_distance_within``), and the
class attribute for methods — so calls from anywhere in the program go
through a wrapper.  ``src/`` is not touched.  A target that does not
resolve raises :class:`TargetError`; it is never reported as zero.

While the :class:`Tracer` is on, each wrapped call opens a span with a
name, a parent (from a context variable, so spans nest per thread), a
start and an end.  A layer's self time is its duration minus the time
its child spans cover.  Spans stay in memory and are written as NDJSON
at exit.  Calls made hundreds of times per operation (:data:`FOLDED`:
TTP, the scalar DP, the UDF, row inserts) are folded into their parent
span as ``{name: {n, total, self, note}}`` instead of one record each;
counts, times and self times stay exact, only their order is dropped.

Times are ``time.perf_counter()``, i.e. ``CLOCK_MONOTONIC`` on Linux,
which is system-wide: spans from the traced server process and the load
generator's timestamps share one clock.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import json
import os
import sys
import time
from collections import defaultdict

from repro import obs

_current: contextvars.ContextVar = contextvars.ContextVar(
    "e2e_span", default=None
)

# Live span slots.
NAME, PARENT, PHASE, START, END, CHILD, NOTE, FOLD = range(8)


def _count(args, result) -> int:
    return len(result) if result is not None else 0


def _truthy(args, result) -> int:
    return 1 if result else 0


def _join_pairs(args, result) -> int:
    return int(args[0].last_stats.get("rows", 0))


#: (span name, module, qualified attribute, note).  ``note(args, result)``
#: keeps one number per span: candidates returned, UDF outcome, pairs.
TARGETS = (
    ("ttp.transform", "repro.ttp.registry", "TTPRegistry.transform", None),
    (
        "engine.create_phonetic_accelerator",
        "repro.core.engine",
        "create_phonetic_accelerator",
        None,
    ),
    (
        "engine.candidate_rowids",
        "repro.core.engine",
        "PhoneticAccelerator.candidate_rowids",
        _count,
    ),
    (
        "engine.on_insert",
        "repro.core.engine",
        "PhoneticAccelerator.on_insert",
        None,
    ),
    (
        "matching.edit_distance_within",
        "repro.matching.editdist",
        "edit_distance_within",
        None,
    ),
    (
        "parallel.from_catalog",
        "repro.parallel.table",
        "EncodedNameTable.from_catalog",
        None,
    ),
    (
        "parallel.executor",
        "repro.parallel.strategy",
        "ParallelStrategy.executor",
        None,
    ),
    (
        "parallel.join",
        "repro.parallel.strategy",
        "ParallelStrategy.join",
        _count,
    ),
    (
        "parallel.match_all_pairs",
        "repro.parallel.executor",
        "ParallelMatchExecutor.match_all_pairs",
        _join_pairs,
    ),
    ("minidb.parse", "repro.minidb.sql", "parse", None),
    (
        "minidb.execute_statement",
        "repro.minidb.planner",
        "execute_statement",
        None,
    ),
    ("minidb.insert", "repro.minidb.catalog", "Database.insert", None),
    ("minidb.analyze", "repro.minidb.catalog", "Database.analyze", None),
    (
        "storage.open_database",
        "repro.storage.bootstrap",
        "open_database",
        None,
    ),
    ("storage.commit", "repro.storage.wal", "WriteAheadLog.commit", None),
    (
        "storage.checkpoint",
        "repro.storage.manager",
        "FileBackend.checkpoint",
        None,
    ),
    ("server.run_sql", "repro.server.service", "QueryService.run_sql", None),
)

#: The LexEQUAL UDF is a closure, reachable only as registered: the
#: wrapper on ``Database.register_udf`` wraps it under this span name.
UDF_SPAN = "udf.lexequal"

#: Every span name a target can record.
SPAN_NAMES = tuple(name for name, *_ in TARGETS) + (UDF_SPAN,)

#: Spans the benchmark opens around its own set-up and operations.
SETUP_SPAN = "bench.setup"
OP_SPAN = "bench.op"

FOLDED = frozenset(
    {
        "ttp.transform",
        "matching.edit_distance_within",
        UDF_SPAN,
        "engine.on_insert",
        "minidb.insert",
    }
)


class TargetError(RuntimeError):
    """A trace target does not resolve in the program."""


def _fold_into(fold: dict, name: str, n, total, self_s, note) -> None:
    entry = fold.setdefault(name, [0, 0.0, 0.0, 0])
    entry[0] += n
    entry[1] += total
    entry[2] += self_s
    entry[3] += note


class Tracer:
    """In-memory span recorder; records only while ``enabled``."""

    def __init__(self) -> None:
        self.enabled = False
        self.phase = "setup"
        self.spans: list[list] = []
        #: One obs registry per phase, installed while recording, so
        #: counters cover exactly the recorded calls of that phase.
        self.registries: dict[str, obs.InMemoryMetricsRegistry] = {}
        os.register_at_fork(after_in_child=self._forked)

    def _forked(self) -> None:
        # Pool workers forked from a traced process would record spans
        # nobody collects; their time shows as the parent-side span.
        self.enabled = False

    def _close(self, span: list) -> None:
        parent = span[PARENT]
        duration = span[END] - span[START]
        if parent is not None:
            parent[CHILD] += duration
        if parent is None or span[NAME] not in FOLDED:
            self.spans.append(span)
            return
        if parent[FOLD] is None:
            parent[FOLD] = {}
        _fold_into(
            parent[FOLD],
            span[NAME],
            1,
            duration,
            duration - span[CHILD],
            span[NOTE] or 0,
        )
        for name, entry in (span[FOLD] or {}).items():
            _fold_into(parent[FOLD], name, *entry)

    def wrap(self, name: str, fn, note=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            span = [name, _current.get(), tracer.phase, time.perf_counter(),
                    0.0, 0.0, None, None]
            token = _current.set(span)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                span[END] = time.perf_counter()
                _current.reset(token)
                if note is not None:
                    span[NOTE] = note(args, result)
                tracer._close(span)

        return traced

    def record(self, name: str, phase: str, fn):
        """Run ``fn()`` as span ``name``, recording everything under it.

        obs counters of the same stretch go to the phase's registry.
        """
        self.phase = phase
        obs.set_registry(
            self.registries.setdefault(phase, obs.InMemoryMetricsRegistry())
        )
        self.enabled = True
        try:
            return self.wrap(name, fn)()
        finally:
            self.enabled = False
            obs.set_registry(obs.NullMetricsRegistry())

    def counters(self, phase: str) -> dict:
        registry = self.registries.get(phase)
        return registry.snapshot()["counters"] if registry else {}

    def records(self, proc: str) -> list[dict]:
        """The spans as dicts; ids and parent ids are local to ``proc``."""
        ids = {id(span): index for index, span in enumerate(self.spans)}
        return [
            {
                "proc": proc,
                "id": index,
                "parent": (
                    None if span[PARENT] is None else ids.get(id(span[PARENT]))
                ),
                "name": span[NAME],
                "phase": span[PHASE],
                "start": span[START],
                "end": span[END],
                "self": span[END] - span[START] - span[CHILD],
                "note": span[NOTE],
                "folded": {
                    name: {"n": n, "total": total, "self": self_s, "note": note}
                    for name, (n, total, self_s, note) in (
                        span[FOLD] or {}
                    ).items()
                },
            }
            for index, span in enumerate(self.spans)
        ]


def dump(records: list[dict], path) -> None:
    """Write span records to ``path`` as NDJSON."""
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record) + "\n")


def load(path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _calls(records: list[dict]):
    """``(name, n, total, self, note)`` per span and per folded entry."""
    for r in records:
        yield r["name"], 1, r["end"] - r["start"], r["self"], r["note"] or 0
        for name, f in r["folded"].items():
            yield name, f["n"], f["total"], f["self"], f["note"]


def span_counts(records: list[dict]) -> dict[str, int]:
    """Calls recorded per target span name (folded calls included)."""
    counts = dict.fromkeys(SPAN_NAMES, 0)
    for name, n, *_ in _calls(records):
        if name in counts:
            counts[name] += n
    return counts


def _resolve(module_name: str, qualname: str):
    try:
        module = importlib.import_module(module_name)
    except ImportError as exc:
        raise TargetError(f"{module_name}: {exc}") from None
    owner_name, _, attr = qualname.rpartition(".")
    owner = module
    if owner_name:
        owner = getattr(module, owner_name, None)
        if owner is None:
            raise TargetError(f"{module_name}.{owner_name} does not exist")
    raw = vars(owner).get(attr)
    if raw is None:
        raise TargetError(f"{module_name}.{qualname} does not exist")
    return module, owner, attr, raw


def install(tracer: Tracer) -> None:
    """Wrap every target; raises :class:`TargetError` if one is missing."""
    for name, module_name, qualname, note in TARGETS:
        module, owner, attr, raw = _resolve(module_name, qualname)
        if isinstance(raw, classmethod):
            wrapped = tracer.wrap(name, raw.__func__, note)
            setattr(owner, attr, classmethod(wrapped))
            continue
        if not callable(raw):
            raise TargetError(f"{module_name}.{qualname} is not callable")
        wrapped = tracer.wrap(name, raw, note)
        setattr(owner, attr, wrapped)
        if owner is module:
            for other in list(sys.modules.values()):
                other_name = getattr(other, "__name__", "")
                if other_name != "repro" and not other_name.startswith("repro."):
                    continue
                for key, value in list(vars(other).items()):
                    if value is raw:
                        setattr(other, key, wrapped)

    _, catalog, _, register = _resolve(
        "repro.minidb.catalog", "Database.register_udf"
    )

    @functools.wraps(register)
    def register_udf(self, name, fn):
        if name.lower() == "lexequal":
            fn = tracer.wrap(UDF_SPAN, fn, _truthy)
        return register(self, name, fn)

    catalog.register_udf = register_udf


# ------------------------------------------------------------- attribution

#: Per-layer metric -> unit.  "/op" values are per traced operation (a
#: query, a join, a served request); "_s" values come from the traced
#: set-up.  "busy" is self time: span time minus its child spans.
LAYER_UNITS = {
    "ttp.calls": "count/op",
    "ttp.busy_ms": "ms/op",
    "ttp.miss_frac": "fraction",
    "ttp.setup_s": "s",
    "engine.build_s": "s",
    "engine.candidates.busy_ms": "ms/op",
    "engine.candidates.count": "count/op",
    "engine.candidate_frac": "fraction",
    "engine.useful_frac": "fraction",
    "engine.maintain_ms": "ms/call",
    "udf.calls": "count/op",
    "udf.true_frac": "fraction",
    "udf.busy_ms": "ms/op",
    "verify.scalar.calls": "count/op",
    "verify.scalar.busy_ms": "ms/op",
    "parallel.encode_ms": "ms",
    "parallel.pool_start_ms": "ms",
    "parallel.join_ms": "ms/op",
    "parallel.merge_ms": "ms/op",
    "parallel.pairs": "count/op",
    "parallel.pairs_per_s": "1/s",
    "parallel.useful_frac": "fraction",
    "sql.parse.busy_ms": "ms/op",
    "minidb.execute.self_ms": "ms/op",
    "minidb.insert_s": "s",
    "minidb.analyze_s": "s",
    "btree.probes": "count/op",
    "storage.open_s": "s",
    "storage.commit.calls": "count/op",
    "storage.commit_ms": "ms",
    "storage.checkpoint_s": "s",
    "server.run_sql.busy_ms": "ms/op",
    "server.write_p50_ms": "ms",
    "server.rejected": "count",
    "gen.late_ms.p99": "ms",
    "unattributed_frac": "fraction",
    "trace_overhead_frac": "fraction",
    "failed_frac": "fraction",
}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _totals(records: list[dict]) -> dict[str, list]:
    """name -> [calls, total s, self s, note sum]."""
    totals: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0, 0])
    for name, n, total, self_s, note in _calls(records):
        entry = totals[name]
        entry[0] += n
        entry[1] += total
        entry[2] += self_s
        entry[3] += note
    return totals


def layer_metrics(
    setup: list[dict],
    ops: list[dict],
    *,
    n_ops: int,
    unattributed: float,
    counters: dict,
    table_rows: int,
    results: int,
    overhead: float,
    server: dict | None = None,
) -> dict[str, tuple[float, int]]:
    """Per-layer metrics ``name -> (value, samples)``, bar ``failed_frac``.

    ``setup`` holds the spans of the traced set-up, ``ops`` those of the
    ``n_ops`` traced operations; ``counters`` are the obs counter deltas
    over the same operations and ``results`` the rows they returned.
    """
    at_setup = _totals(setup)
    run = _totals(ops)

    def per_op(value: float) -> tuple[float, int]:
        return _ratio(value, n_ops), n_ops

    def busy_ms(name: str) -> tuple[float, int]:
        return per_op(run[name][2] * 1e3)

    candidates = run["engine.candidate_rowids"][3]
    probes = run["engine.candidate_rowids"][0]
    udf_calls, _, _, udf_true = run[UDF_SPAN]
    inserts, insert_s, _, _ = run["engine.on_insert"]
    commits = sorted(
        r["end"] - r["start"] for r in ops if r["name"] == "storage.commit"
    )
    pairs = run["parallel.match_all_pairs"][3]
    join_s = run["parallel.match_all_pairs"][1]
    joins = run["parallel.join"][0]
    hits = counters.get("ttp.cache.hits", 0)
    misses = counters.get("ttp.cache.misses", 0)
    server = server or {}
    return {
        "ttp.calls": per_op(run["ttp.transform"][0]),
        "ttp.busy_ms": busy_ms("ttp.transform"),
        "ttp.miss_frac": (_ratio(misses, hits + misses), int(hits + misses)),
        "ttp.setup_s": (at_setup["ttp.transform"][2], 1),
        "engine.build_s": (at_setup["engine.create_phonetic_accelerator"][1], 1),
        "engine.candidates.busy_ms": busy_ms("engine.candidate_rowids"),
        "engine.candidates.count": per_op(candidates),
        "engine.candidate_frac": (
            _ratio(candidates, probes * table_rows),
            probes,
        ),
        "engine.useful_frac": (_ratio(results, candidates), int(candidates)),
        "engine.maintain_ms": (_ratio(insert_s, inserts) * 1e3, inserts),
        "udf.calls": per_op(counters.get("udf.lexequal.calls", 0)),
        "udf.true_frac": (_ratio(udf_true, udf_calls), udf_calls),
        "udf.busy_ms": busy_ms(UDF_SPAN),
        "verify.scalar.calls": per_op(run["matching.edit_distance_within"][0]),
        "verify.scalar.busy_ms": busy_ms("matching.edit_distance_within"),
        "parallel.encode_ms": (at_setup["parallel.from_catalog"][1] * 1e3, 1),
        "parallel.pool_start_ms": (
            (
                at_setup["parallel.executor"][1]
                - at_setup["parallel.from_catalog"][1]
            )
            * 1e3,
            1,
        ),
        "parallel.join_ms": per_op(join_s * 1e3),
        "parallel.merge_ms": busy_ms("parallel.join"),
        "parallel.pairs": per_op(pairs),
        "parallel.pairs_per_s": (_ratio(pairs, join_s), joins),
        "parallel.useful_frac": (
            _ratio(run["parallel.join"][3], pairs),
            joins,
        ),
        "sql.parse.busy_ms": busy_ms("minidb.parse"),
        "minidb.execute.self_ms": busy_ms("minidb.execute_statement"),
        "minidb.insert_s": (at_setup["minidb.insert"][1], 1),
        "minidb.analyze_s": (at_setup["minidb.analyze"][1], 1),
        "btree.probes": per_op(counters.get("btree.probes", 0)),
        "storage.open_s": (at_setup["storage.open_database"][1], 1),
        "storage.commit.calls": per_op(len(commits)),
        "storage.commit_ms": (
            commits[(len(commits) - 1) // 2] * 1e3 if commits else 0.0,
            len(commits),
        ),
        "storage.checkpoint_s": (at_setup["storage.checkpoint"][1], 1),
        "server.run_sql.busy_ms": busy_ms("server.run_sql"),
        "server.write_p50_ms": (server.get("server.write_p50_ms", 0.0), 1),
        "server.rejected": (server.get("server.rejected", 0.0), 1),
        "gen.late_ms.p99": (server.get("gen.late_ms.p99", 0.0), 1),
        "unattributed_frac": (unattributed, n_ops),
        "trace_overhead_frac": (overhead, n_ops),
    }


def unattributed(ops: list[dict]) -> float:
    """Share of the benchmark's op spans not covered by program spans."""
    own = [r for r in ops if r["name"] == OP_SPAN]
    return _ratio(
        sum(r["self"] for r in own), sum(r["end"] - r["start"] for r in own)
    )
