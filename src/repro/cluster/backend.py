"""Shard-side service: a :class:`QueryService` over one lexicon slice.

A shard backend is the *existing* server (`repro.server.app`) wrapped
around a :class:`ShardedQueryService` — the only cluster-awareness a
shard needs is (a) loading just the rows it owns and (b) filtering
broadcast INSERTs down to its owned rows, so the router can send one
write to every shard and each row still lands exactly once.

Two data sources, mirroring single-process serving:

* **demo catalog** — the Books.com table, filtered through the shard
  ring before insertion; the phonetic accelerator is built over the
  owned subset only.
* **``--data-dir``** — the shard *recovers* the shared durable
  directory (checkpoint + WAL replay), then detaches onto an in-memory
  backend before dropping the rows it does not own.  Shards are
  read-mostly replicas of their slice: they must never write to the
  shared WAL/stats files (N processes appending to one log would
  corrupt it), so durability stays with whoever runs ``lexequal init``
  / single-process serving.  The recovered WAL high-water LSN is
  reported by ``health`` so the supervisor can see how fresh each
  shard's view is.
"""

from __future__ import annotations

from repro.cluster import ring
from repro.core.matcher import LexEqualMatcher
from repro.minidb.sql import InsertStmt
from repro.server.service import QueryService

__all__ = ["ShardedQueryService", "owns_row", "sharded_service"]


def owns_row(row, shard_index: int, shard_count: int) -> bool:
    """Does ``shard_index`` own this row under the shard ring?

    Keyless (purely numeric) rows belong to shard 0 so broadcast
    INSERTs still land each row exactly once.
    """
    key = ring.row_key(row)
    owner = 0 if key is None else ring.shard_of(key, shard_count)
    return owner == shard_index


class ShardedQueryService(QueryService):
    """A query service that owns one slice of the partitioned lexicon."""

    def __init__(
        self,
        shard_index: int,
        shard_count: int,
        db=None,
        matcher=None,
        *,
        wal_lsn: int | None = None,
        **kwargs,
    ):
        if not 0 <= shard_index < shard_count:
            raise ValueError(
                f"shard_index {shard_index} out of range for "
                f"shard_count {shard_count}"
            )
        super().__init__(db, matcher, **kwargs)
        self.shard_index = shard_index
        self.shard_count = shard_count
        self._recovered_wal_lsn = wal_lsn

    def shard_info(self) -> dict:
        return {"index": self.shard_index, "count": self.shard_count}

    def health(self, server_info: dict | None = None) -> dict:
        payload = super().health(server_info)
        if payload["wal_lsn"] is None:
            # Detached replica: report the LSN recovered at open so the
            # supervisor still sees how fresh this shard's view is.
            payload["wal_lsn"] = self._recovered_wal_lsn
        return payload

    def owns_row(self, values: tuple) -> bool:
        return owns_row(values, self.shard_index, self.shard_count)

    def _transform_statement(self, stmt, params: dict):
        """Keep only this shard's rows of a broadcast INSERT.

        DDL and reads pass through unchanged — the router broadcasts
        DDL to every shard (each must hold the schema) and fans reads
        out over owned slices.  The statement cache shares AST objects
        across requests, so a filtered INSERT is a *new* statement,
        never a mutation of the cached one.
        """
        if not isinstance(stmt, InsertStmt):
            return stmt
        from repro.minidb.planner import eval_constant

        owned = [
            row_exprs
            for row_exprs in stmt.rows
            if self.owns_row(
                tuple(eval_constant(expr, params) for expr in row_exprs)
            )
        ]
        if len(owned) == len(stmt.rows):
            return stmt
        if not owned:
            return None
        return InsertStmt(stmt.table, owned)


def sharded_service(
    shard_index: int,
    shard_count: int,
    *,
    strategy: str = "qgram",
    data_dir: str | None = None,
    matcher: LexEqualMatcher | None = None,
    workers: int | None = None,
) -> ShardedQueryService:
    """Build the service for one shard backend process."""
    matcher = matcher or LexEqualMatcher()
    if data_dir:
        db, wal_lsn, strategy = _open_shard_slice(
            data_dir, shard_index, shard_count, matcher, workers
        )
    else:
        wal_lsn = None
        from repro.core.integration import demo_books_db

        db = demo_books_db(
            strategy,
            matcher,
            workers,
            row_filter=lambda row: owns_row(row, shard_index, shard_count),
        )
    return ShardedQueryService(
        shard_index,
        shard_count,
        db,
        matcher,
        wal_lsn=wal_lsn,
        strategy=strategy,
    )


def _open_shard_slice(
    data_dir: str,
    shard_index: int,
    shard_count: int,
    matcher: LexEqualMatcher,
    workers: int | None,
):
    """Recover the shared directory, keep the owned slice, rebuild."""
    from repro import faults
    from repro.core.engine import create_phonetic_accelerator
    from repro.core.integration import install_lexequal
    from repro.storage import open_database
    from repro.storage.bootstrap import accelerator_method
    from repro.storage.manager import MemoryBackend

    with faults.suppressed():
        db = open_database(
            data_dir, matcher=matcher, attach_accelerators=False
        )
        backend = db.storage
        wal_lsn = backend.wal_high_water_lsn
        meta = backend.accelerator_meta()
        # Detach before any mutation: the shard must never write to the
        # shared WAL/checkpoint/stats files (see module docstring).
        db.storage = MemoryBackend()
        backend.close()
        for table_name in db.table_names():
            doomed = [
                rowid
                for rowid, row in db.table(table_name).scan()
                if not owns_row(row, shard_index, shard_count)
            ]
            for rowid in doomed:
                db.delete_row(table_name, rowid)
        install_lexequal(db, matcher)
        strategies = set()
        for entry in meta:
            method = accelerator_method(entry)
            # Rebuild over the owned slice; the persisted snapshot
            # covers the full lexicon, so restoring it would answer
            # other shards' rows from this shard.
            create_phonetic_accelerator(
                db,
                entry["table"],
                entry["column"],
                matcher,
                method=method,
                workers=workers or entry.get("workers"),
                allow_lossy=entry.get("allow_lossy", False),
            )
            strategies.add(method)
            if method == "auto":
                db.analyze()
        strategy = ",".join(sorted(strategies)) if strategies else "none"
    return db, wal_lsn, strategy
