"""A thread-safe LRU cache of parsed statements, keyed on SQL text.

Real workloads repeat the same statement shapes endlessly (the
paper's Figure 3 query with varying bindings), so parsing is hoisted
out of the per-request path: the first time a SQL text is seen it is
parsed once and the AST is cached; ``prepare``/``execute`` and plain
``query`` both route through here.  The cache takes a lock even though
the server runs one engine thread by default: ``prepare`` parses on
the event loop while that thread executes, and ``--workers`` adds
engine threads.
Statement ASTs are immutable dataclass trees, so one cached entry is
safely shared by concurrent executions — the planner builds a fresh
physical plan per execution (plans close over their parameter bindings
and cannot be reused across requests).

Hits and misses feed the ``server.statement_cache.*`` counters and the
``stats`` op's ``statement_cache`` block.
"""

from __future__ import annotations

from collections import OrderedDict

from repro import obs
from repro.locks import make_lock
from repro.minidb.sql import Statement, parse


class StatementCache:
    """Bounded LRU mapping SQL text to its parsed :class:`Statement`."""

    def __init__(self, maxsize: int = 128):
        if maxsize < 1:
            raise ValueError("statement cache needs maxsize >= 1")
        self.maxsize = maxsize
        self._lock = make_lock("server.cache")
        self._entries: OrderedDict[str, Statement] = OrderedDict()
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    def statement(self, sql: str) -> Statement:
        """The parsed statement for ``sql``, parsing and caching on miss.

        Parse errors propagate (and are not cached: a typo retried after
        a schema fix should be re-parsed, and failures are rare).
        """
        with self._lock:
            cached = self._entries.get(sql)
            if cached is not None:
                self._entries.move_to_end(sql)
                self._hits += 1
                obs.incr("server.statement_cache.hits")
                return cached
        # Parse outside the lock: parsing is pure and the cache stays
        # responsive; a concurrent duplicate parse just loses the race.
        stmt = parse(sql)
        with self._lock:
            self._misses += 1
            obs.incr("server.statement_cache.misses")
            self._entries[sql] = stmt
            self._entries.move_to_end(sql)
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)
                self._evictions += 1
                obs.incr("server.statement_cache.evictions")
        return stmt

    def __len__(self) -> int:
        return len(self._entries)

    def info(self) -> dict:
        """Cache state for the ``stats`` op (JSON-serializable)."""
        with self._lock:
            return {
                "size": len(self._entries),
                "maxsize": self.maxsize,
                "hits": self._hits,
                "misses": self._misses,
                "evictions": self._evictions,
            }

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
