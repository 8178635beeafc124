"""Opening a durable database: checkpoint restore + WAL replay + attach.

:func:`open_database` is the recovery sequence (DESIGN.md §10.4):

1. open the :class:`~repro.storage.manager.FileBackend` (which scans
   the WAL, truncating any torn tail);
2. rebuild tables and B+ tree indexes from the last checkpoint —
   heap slot lists are restored verbatim, tombstones included, so
   rowids are exactly what the indexes recorded;
3. replay committed WAL batches through the ordinary catalog mutation
   paths (re-logging suppressed), asserting that every replayed insert
   lands on the rowid the log recorded; records at or below the
   checkpoint's WAL high-water mark are skipped — they are already in
   the checkpoint, and survive on disk only when a crash hit between
   the checkpoint rename and the WAL reset;
4. load the persisted stats catalog (pruned of tables the WAL dropped);
5. re-attach phonetic accelerators from the manifest, restoring their
   snapshot artifacts and delta-syncing any rows committed after the
   last checkpoint — the expensive TTP pass runs only over the delta.
"""

from __future__ import annotations

from repro import obs
from repro.errors import StorageError
from repro.minidb.catalog import Database
from repro.minidb.schema import Column, TableSchema
from repro.minidb.table import HeapTable
from repro.minidb.values import SqlType
from repro.storage import snapshots
from repro.storage.manager import FileBackend
from repro.storage.wal import WalRecord

#: Accelerator methods that older versions persisted, and the method
#: each reopens as.  ``ann``, a removed lossy embedding prefilter,
#: approximated the lossless q-gram source's answers; its snapshot then
#: names another method, so the accelerator rebuilds from the table.
RETIRED_METHODS = {"ann": "qgram"}


def accelerator_method(entry: dict) -> str:
    """The method to attach a manifest accelerator entry with."""
    return RETIRED_METHODS.get(entry["method"], entry["method"])


def open_database(
    data_dir: str,
    *,
    matcher=None,
    sync: bool = True,
) -> Database:
    """Open (or create) a durable database rooted at ``data_dir``.

    ``matcher`` is the :class:`~repro.core.matcher.LexEqualMatcher`
    used to re-attach accelerators (a default one is built when any are
    recorded and none is given).  ``sync=False`` trades the
    fsync-per-commit durability guarantee for bulk-load speed.
    """
    backend = FileBackend(data_dir, sync=sync)
    db = Database(storage=backend)
    backend.replaying = True
    try:
        with obs.timed("storage.open"):
            checkpoint = backend.recovered_checkpoint()
            if checkpoint is not None:
                _restore_checkpoint(db, checkpoint)
            replayed = 0
            for batch in backend.recovered_wal().batches:
                for record in batch:
                    _apply_record(db, record)
                    replayed += 1
            if replayed:
                obs.incr("storage.wal.replayed", replayed)
    finally:
        backend.replaying = False
    from repro.minidb.stats import StatsCatalog

    stats_payload = backend.load_stats()
    if stats_payload is not None:
        db.stats = StatsCatalog.from_dict(stats_payload)
        # stats.json may predate a DROP TABLE replayed from the WAL.
        db.stats.prune(db.table_names())
    _attach_accelerators(db, backend, matcher)
    return db


def _restore_checkpoint(db: Database, checkpoint: dict) -> None:
    for entry in checkpoint["tables"]:
        columns = tuple(
            Column(name, SqlType[type_name], nullable)
            for name, type_name, nullable in entry["columns"]
        )
        schema = TableSchema(entry["name"], columns)
        db.attach_table(HeapTable.from_slots(schema, entry["slots"]))
    for entry in checkpoint["indexes"]:
        db.attach_index(
            entry["name"],
            entry["table"],
            entry["column"],
            snapshots.restore_btree(entry["state"]),
        )


def _apply_record(db: Database, record: WalRecord) -> None:
    op, args = record.op, record.args
    if op == "insert":
        table_name, rowid, row = args
        actual = db.insert(table_name, row)
        if actual != rowid:
            raise StorageError(
                f"WAL replay drift: insert into {table_name!r} logged "
                f"rowid {rowid} but replayed to {actual} "
                f"(lsn {record.lsn})"
            )
    elif op == "delete":
        table_name, rowid = args
        db.delete_row(table_name, rowid)
    elif op == "create_table":
        name, columns = args
        db.create_table(
            name,
            [
                Column(cname, SqlType[type_name], nullable)
                for cname, type_name, nullable in columns
            ],
        )
    elif op == "drop_table":
        db.drop_table(args[0])
    elif op == "create_index":
        name, table_name, column_name, order = args
        db.create_index(name, table_name, column_name, order=order)
    elif op == "drop_index":
        db.drop_index(args[0])
    else:
        raise StorageError(
            f"unknown WAL op {op!r} at lsn {record.lsn} "
            "(data written by a newer format?)"
        )


def _attach_accelerators(
    db: Database, backend: FileBackend, matcher
) -> None:
    meta = backend.accelerator_meta()
    if not meta:
        return
    from repro.core.engine import create_phonetic_accelerator
    from repro.core.matcher import LexEqualMatcher

    matcher = matcher or LexEqualMatcher()
    for entry in meta:
        snapshot = backend.load_artifact(entry["artifact"])
        create_phonetic_accelerator(
            db,
            entry["table"],
            entry["column"],
            matcher=matcher,
            method=accelerator_method(entry),
            workers=entry.get("workers"),
            allow_lossy=entry.get("allow_lossy", False),
            restore=snapshot,
        )
        if snapshot is not None:
            obs.incr("storage.accelerator.attached")
        else:
            obs.incr("storage.accelerator.rebuilt")
