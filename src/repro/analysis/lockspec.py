"""The sanctioned concurrency spec: lock order, fork/signal sites, loops.

This module is **data, not code** — the single declarative source of
truth shared by the static LEX-C rules (:mod:`repro.analysis.concurrency`)
and the runtime lock-order sanitizer (:mod:`repro.analysis.sanitizer`).
Every lock in the system has a canonical dotted name and a rank; locks
must only ever be acquired in ascending rank order.  Exceptions — fork
hooks that may touch a lock, hot-path loops that poll their deadline
through a callback the analyzer cannot see — are sanctioned *here*, each
with a reason string, never via the lint baseline (DESIGN.md §8).

Keep this file import-light: it is imported by production code paths
when ``REPRO_LOCKSAN=1`` is set.
"""

from __future__ import annotations

from dataclasses import dataclass, field

# --------------------------------------------------------------- ranks
#
# The sanctioned total order.  Lower rank = acquired first (outermost).
# The load-bearing chain is the PR 7 invariant:
#
#   minidb.catalog.write < {minidb.table.write, storage.backend}
#   < registries/caches < faults < shm < obs
#
# i.e. the catalog write lock is always taken before the storage
# backend lock (checkpoint does ``with db.write_lock, self._lock``),
# and observability/fault instrumentation locks are leaves that any
# holder may take but that must never wrap a structural lock.

LOCK_RANKS: dict[str, int] = {
    "minidb.catalog.write": 20,
    "minidb.table.write": 30,
    "storage.backend": 35,
    "ttp.default": 50,
    "ttp.registry": 52,
    "server.cache": 55,
    "server.breaker_board": 60,
    "server.breaker": 62,
    "faults.registry": 70,
    "parallel.shm.counter": 80,
    "parallel.shm.live": 81,
    "parallel.shm.tracker": 82,
    "obs.registry": 90,
    "obs.instrument": 92,
}

#: ``(outer, inner)`` pairs allowed even though ranks would forbid (or
#: not order) them.  Empty today: every observed nesting follows the
#: rank order.  Add pairs here — with a comment — rather than
#: baselining a LEX-C001 finding.
SANCTIONED_EDGES: frozenset[tuple[str, str]] = frozenset()

# ------------------------------------------------- static resolution
#
# How the static analyzer maps source-level references back to
# canonical names.  ``self.<attr>`` inside a class resolves through
# CLASS_ATTRS; module-level names through MODULE_VARS; cross-object
# attribute references (``db.write_lock``) through ATTR_ALIASES, which
# must only contain attribute names that are unambiguous repo-wide.

CLASS_ATTRS: dict[tuple[str, str], str] = {
    ("Database", "_write_lock"): "minidb.catalog.write",
    ("HeapTable", "_write_lock"): "minidb.table.write",
    ("FileBackend", "_lock"): "storage.backend",
    ("TTPRegistry", "_lock"): "ttp.registry",
    ("StatementCache", "_lock"): "server.cache",
    ("BreakerBoard", "_lock"): "server.breaker_board",
    ("CircuitBreaker", "_lock"): "server.breaker",
    ("FaultRegistry", "_lock"): "faults.registry",
    ("InMemoryMetricsRegistry", "_lock"): "obs.registry",
    ("Counter", "_lock"): "obs.instrument",
    ("Timer", "_lock"): "obs.instrument",
    ("Histogram", "_lock"): "obs.instrument",
}

MODULE_VARS: dict[tuple[str, str], str] = {
    ("src/repro/parallel/shm.py", "_counter_lock"): "parallel.shm.counter",
    ("src/repro/parallel/shm.py", "_live_lock"): "parallel.shm.live",
    ("src/repro/parallel/shm.py", "_tracker_patch_lock"): (
        "parallel.shm.tracker"
    ),
    ("src/repro/ttp/registry.py", "_DEFAULT_LOCK"): "ttp.default",
}

ATTR_ALIASES: dict[str, str] = {
    # Database.write_lock is the public property over _write_lock; it
    # is the only lock reached through a cross-object attribute today.
    "write_lock": "minidb.catalog.write",
}

#: Files the lock rules skip entirely, with reasons.  The sanitizer is
#: the measuring instrument — its internal state lock wraps tracked
#: acquisitions by construction and must not be graded by the rules it
#: implements.
EXCLUDED_FILES: dict[str, str] = {
    "src/repro/locks.py": "lock factory: creates locks, never holds them",
    "src/repro/analysis/sanitizer.py": (
        "sanitizer internals: the instrument, not the subject"
    ),
}

# ------------------------------------------------ fork / signal sites
#
# Functions reachable from an ``os.register_at_fork`` hook or a
# ``signal.signal`` handler that are allowed to touch locks or spawn
# threads, keyed ``(repo-relative file, qualname)``.

SANCTIONED_FORK_SITES: dict[tuple[str, str], str] = {}

SANCTIONED_SIGNAL_SITES: dict[tuple[str, str], str] = {}

# ------------------------------------------------- hot-path loop spec
#
# Files whose ``while`` loops must poll the cooperative deadline
# (LEX-C005), and the loops sanctioned as bounded by other means.

HOT_PATH_FILES: tuple[str, ...] = (
    "src/repro/matching/editdist.py",
    "src/repro/matching/batch.py",
    "src/repro/parallel/executor.py",
)

SANCTIONED_UNPOLLED_LOOPS: dict[tuple[str, str], str] = {
    ("src/repro/parallel/executor.py", "_worker_main"): (
        "worker idle loop: bounded by the 1s poll timeout plus the "
        "orphaned-parent check; workers disarm inherited deadlines"
    ),
    ("src/repro/parallel/executor.py", "_worker_run"): (
        "chunk claim loop: bounded by the query's chunk count, since "
        "every pass claims a fresh index from the shared counter; "
        "cancellation is enforced parent-side because workers disarm "
        "inherited deadlines"
    ),
    (
        "src/repro/parallel/executor.py",
        "ParallelMatchExecutor._drain_stale",
    ): (
        "drains only already-queued results: poll() without a timeout "
        "returns False immediately once the pipe is empty"
    ),
}

#: Package prefixes whose ``async def`` bodies LEX-C002 scans.
ASYNC_SCOPES: tuple[str, ...] = ("src/repro/server",)

#: ``async def`` bodies allowed to make nominally-blocking calls.
SANCTIONED_ASYNC_SITES: dict[tuple[str, str], str] = {}


# ------------------------------------------------------- spec object


@dataclass(frozen=True)
class LockOrderSpec:
    """One bundled, overridable view of the sanctioned concurrency spec.

    Rules and the sanitizer take a spec instance (defaulting to
    :data:`DEFAULT_SPEC`) so tests can point the same machinery at
    fixture trees with seeded violations.
    """

    ranks: dict[str, int] = field(default_factory=lambda: dict(LOCK_RANKS))
    sanctioned_edges: frozenset[tuple[str, str]] = SANCTIONED_EDGES
    class_attrs: dict[tuple[str, str], str] = field(
        default_factory=lambda: dict(CLASS_ATTRS)
    )
    module_vars: dict[tuple[str, str], str] = field(
        default_factory=lambda: dict(MODULE_VARS)
    )
    attr_aliases: dict[str, str] = field(
        default_factory=lambda: dict(ATTR_ALIASES)
    )
    excluded_files: dict[str, str] = field(
        default_factory=lambda: dict(EXCLUDED_FILES)
    )

    def rank(self, name: str) -> int | None:
        return self.ranks.get(name)

    def allows(self, outer: str, inner: str) -> bool:
        """True when acquiring ``inner`` while holding ``outer`` is OK."""
        if outer == inner:
            # Reentrancy (RLock) or same-name sibling instances; the
            # static rule cannot order instances and the sanitizer
            # handles reentrancy by depth.
            return True
        if (outer, inner) in self.sanctioned_edges:
            return True
        outer_rank, inner_rank = self.rank(outer), self.rank(inner)
        if outer_rank is None or inner_rank is None:
            # Unranked locks have no sanctioned position; the caller
            # reports them separately.
            return False
        return outer_rank < inner_rank


DEFAULT_SPEC = LockOrderSpec()
