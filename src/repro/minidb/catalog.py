"""The database catalog: tables, secondary indexes, and UDFs.

A :class:`Database` owns heap tables and keeps their B+ tree indexes in
sync on insert/delete.  User-defined functions registered here become
callable from SQL expressions — the mechanism the paper uses to add
LexEQUAL to a stock engine ("all commercial database systems allow
User-defined Functions (UDF) that may be used to add new functionality
to the server").
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from dataclasses import dataclass

from repro.errors import DatabaseError, SchemaError
from repro.locks import make_rlock
from repro.minidb.btree import BPlusTree
from repro.minidb.schema import Column, TableSchema
from repro.minidb.table import HeapTable


@dataclass
class IndexInfo:
    """A secondary index: a B+ tree over one column of one table."""

    name: str
    table_name: str
    column_name: str
    tree: BPlusTree


class Database:
    """A database catalog: named tables, indexes and UDFs.

    Mutations (DDL, row writes, UDF/observer registration) serialize on
    one reentrant lock so concurrent server sessions cannot corrupt the
    catalog or leave indexes half-maintained.  Reads — lookups, scans,
    query execution — stay lock-free: the read paths only traverse
    structures that mutations replace or append to atomically under the
    GIL, which keeps the many-readers/few-writers service workload fast.

    ``storage`` selects the durability backend (see
    :mod:`repro.storage.manager`): the default
    :class:`~repro.storage.manager.MemoryBackend` keeps today's
    in-memory behaviour; a
    :class:`~repro.storage.manager.FileBackend` WAL-logs every
    committed mutation and checkpoints heap + index snapshots, so
    :func:`repro.storage.open_database` can reopen the catalog after a
    crash.  Mutation hooks fire *after* the in-memory structures are
    consistent, inside the write lock, so the log order equals the
    effect order.
    """

    def __init__(self, storage=None) -> None:
        # Reentrant because write paths nest (insert → observer →
        # accelerator maintenance may consult the catalog again).
        self._write_lock = make_rlock("minidb.catalog.write")
        self._tables: dict[str, HeapTable] = {}
        self._indexes: dict[str, IndexInfo] = {}
        self._indexes_by_table: dict[str, list[IndexInfo]] = {}
        self._udfs: dict[str, Callable] = {}
        self._observers: dict[str, list] = {}
        self._accelerators: dict[tuple[str, str], object] = {}
        if storage is None:
            from repro.storage.manager import MemoryBackend

            storage = MemoryBackend()
        self.storage = storage
        from repro.minidb.stats import StatsCatalog

        #: The stats catalog ``ANALYZE`` fills (cost-based planning input).
        self.stats = StatsCatalog()

    @property
    def write_lock(self):
        """The catalog write lock (reentrant, usable as a context
        manager).

        Lock order is catalog -> storage backend everywhere: mutations
        hold this lock when they reach the storage hooks (which then
        take the backend's lock), and
        :meth:`repro.storage.manager.FileBackend.checkpoint` acquires
        it *before* its own lock — acquiring them in the opposite order
        anywhere would deadlock against a concurrent writer.
        """
        return self._write_lock

    # ------------------------------------------------------------- tables

    def create_table(
        self, name: str, columns: Iterable[Column]
    ) -> HeapTable:
        """Create a table; raises if the name is taken."""
        key = name.lower()
        with self._write_lock:
            if key in self._tables:
                raise SchemaError(f"table {name!r} already exists")
            table = HeapTable(TableSchema(name, tuple(columns)))
            self._tables[key] = table
            self._indexes_by_table[key] = []
            self.storage.on_create_table(table.schema)
            return table

    def drop_table(self, name: str) -> None:
        """Drop a table, its indexes, and its planner statistics."""
        key = name.lower()
        with self._write_lock:
            table = self._require_table(name)
            for info in self._indexes_by_table.pop(key, []):
                self._indexes.pop(info.name.lower(), None)
            del self._tables[key]
            # Stale stats would keep skewing the cost-based planner
            # (worse: attach to a recreated table of the same name).
            self.stats.drop(table.name)
            self.storage.on_drop_table(table.name)
            if self.storage.persistent and not self.storage.replaying:
                self.storage.save_stats(self.stats.to_dict())

    def table(self, name: str) -> HeapTable:
        return self._require_table(name)

    def has_table(self, name: str) -> bool:
        return name.lower() in self._tables

    def table_names(self) -> tuple[str, ...]:
        return tuple(sorted(t.name for t in self._tables.values()))

    def _require_table(self, name: str) -> HeapTable:
        try:
            return self._tables[name.lower()]
        except KeyError:
            raise SchemaError(f"no such table {name!r}") from None

    # -------------------------------------------------------------- rows

    def insert(self, table_name: str, row: tuple) -> int:
        """Insert a row, maintaining all indexes; returns the rowid."""
        with self._write_lock:
            table = self._require_table(table_name)
            rowid = table.insert(row)
            stored = table.fetch(rowid)
            for info in self._indexes_by_table[table_name.lower()]:
                pos = table.schema.position(info.column_name)
                key = stored[pos]
                if key is not None:  # B-tree indexes skip NULL keys
                    info.tree.insert(key, rowid)
            self.storage.on_insert(table.name, rowid, stored)
            for observer in self._observers.get(table_name.lower(), []):
                observer.on_insert(rowid, stored)
            return rowid

    def insert_many(self, table_name: str, rows: Iterable[tuple]) -> int:
        """Bulk insert in one storage transaction (one WAL commit)."""
        count = 0
        with self.storage.transaction():
            for row in rows:
                self.insert(table_name, row)
                count += 1
        return count

    def delete_row(self, table_name: str, rowid: int) -> None:
        """Delete one row by rowid, maintaining all indexes."""
        with self._write_lock:
            table = self._require_table(table_name)
            old = table.delete(rowid)
            for info in self._indexes_by_table[table_name.lower()]:
                pos = table.schema.position(info.column_name)
                if old[pos] is not None:
                    info.tree.delete(old[pos], rowid)
            self.storage.on_delete(table.name, rowid)
            for observer in self._observers.get(table_name.lower(), []):
                observer.on_delete(rowid, old)

    # ------------------------------------------------------------ indexes

    def create_index(
        self,
        index_name: str,
        table_name: str,
        column_name: str,
        *,
        order: int = 64,
    ) -> IndexInfo:
        """Build a B+ tree index over an existing column (backfilled).

        NULL keys are not indexed (as in most engines): an index scan can
        never produce a row whose key is NULL, which matches SQL equality
        semantics.
        """
        key = index_name.lower()
        with self._write_lock:
            if key in self._indexes:
                raise SchemaError(f"index {index_name!r} already exists")
            table = self._require_table(table_name)
            pos = table.schema.position(column_name)
            tree = BPlusTree(order=order)
            for rowid, row in table.scan():
                if row[pos] is not None:  # NULL keys are not indexed
                    tree.insert(row[pos], rowid)
            info = IndexInfo(index_name, table.name, column_name, tree)
            self._indexes[key] = info
            self._indexes_by_table[table_name.lower()].append(info)
            self.storage.on_create_index(
                index_name, table.name, column_name, order
            )
            return info

    def drop_index(self, index_name: str) -> None:
        key = index_name.lower()
        with self._write_lock:
            try:
                info = self._indexes.pop(key)
            except KeyError:
                raise SchemaError(f"no such index {index_name!r}") from None
            self._indexes_by_table[info.table_name.lower()].remove(info)
            self.storage.on_drop_index(info.name)

    def index(self, index_name: str) -> IndexInfo:
        try:
            return self._indexes[index_name.lower()]
        except KeyError:
            raise SchemaError(f"no such index {index_name!r}") from None

    def index_on(self, table_name: str, column_name: str) -> IndexInfo | None:
        """The first index on ``table.column``, if any (planner hook)."""
        for info in self._indexes_by_table.get(table_name.lower(), []):
            if info.column_name.lower() == column_name.lower():
                return info
        return None

    def indexes_for(self, table_name: str) -> tuple[IndexInfo, ...]:
        return tuple(self._indexes_by_table.get(table_name.lower(), []))

    # -------------------------------------------------- observers/hooks

    def add_observer(self, table_name: str, observer) -> None:
        """Register a table observer (``on_insert(rowid, row)`` /
        ``on_delete(rowid, row)``), called after index maintenance.

        This is the hook auxiliary access structures (e.g. the phonetic
        accelerators of :mod:`repro.core.engine`) use to stay in sync.
        """
        with self._write_lock:
            self._require_table(table_name)
            self._observers.setdefault(
                table_name.lower(), []
            ).append(observer)

    def remove_observer(self, table_name: str, observer) -> None:
        with self._write_lock:
            observers = self._observers.get(table_name.lower(), [])
            if observer in observers:
                observers.remove(observer)

    def register_accelerator(
        self, table_name: str, column_name: str, accelerator
    ) -> None:
        """Register a predicate accelerator for ``table.column``.

        The planner consults it when a query has a LexEQUAL predicate on
        that column: ``accelerator.candidate_rowids(value, threshold)``
        must return a rowid list that is a superset of the matching rows
        (or None to decline).  This is the hook behind the
        paper's "inside-the-engine implementation" future work.
        """
        with self._write_lock:
            self._require_table(table_name)
            self._accelerators[
                (table_name.lower(), column_name.lower())
            ] = accelerator

    def accelerator_for(self, table_name: str, column_name: str):
        return self._accelerators.get(
            (table_name.lower(), column_name.lower())
        )

    # ------------------------------------------------------- durability

    def transaction(self):
        """Group mutations into one storage commit (one WAL fsync)."""
        return self.storage.transaction()

    def checkpoint(self) -> None:
        """Fold the WAL into a fresh checkpoint (no-op in memory)."""
        self.storage.checkpoint(self)

    def analyze(self, table_name: str | None = None) -> int:
        """Collect planner statistics (the ``ANALYZE`` statement).

        Returns the number of tables analyzed; the refreshed stats
        catalog is persisted through the storage backend.
        """
        from repro.minidb.stats import analyze_database

        count = analyze_database(self, table_name)
        self.storage.save_stats(self.stats.to_dict())
        return count

    def snapshot_state(self) -> dict:
        """Consistent catalog state for a storage checkpoint.

        Index entries carry the live ``tree`` objects; the storage
        layer serializes them (the catalog stays format-agnostic).
        """
        with self._write_lock:
            tables = [
                {
                    "name": table.schema.name,
                    "columns": [
                        (c.name, c.type.name, c.nullable)
                        for c in table.schema.columns
                    ],
                    "slots": table.slot_snapshot(),
                }
                for table in self._tables.values()
            ]
            indexes = [
                {
                    "name": info.name,
                    "table": info.table_name,
                    "column": info.column_name,
                    "tree": info.tree,
                }
                for info in self._indexes.values()
            ]
        return {"tables": tables, "indexes": indexes}

    def attach_table(self, table: HeapTable) -> None:
        """Attach a recovered heap table (storage restore path: no
        storage hook, rowids and tombstones preserved exactly)."""
        key = table.name.lower()
        with self._write_lock:
            if key in self._tables:
                raise SchemaError(f"table {table.name!r} already exists")
            self._tables[key] = table
            self._indexes_by_table[key] = []

    def attach_index(
        self,
        index_name: str,
        table_name: str,
        column_name: str,
        tree: BPlusTree,
    ) -> IndexInfo:
        """Attach a recovered index without backfilling it (storage
        restore path; the snapshot already holds every entry)."""
        key = index_name.lower()
        with self._write_lock:
            if key in self._indexes:
                raise SchemaError(f"index {index_name!r} already exists")
            table = self._require_table(table_name)
            table.schema.position(column_name)  # validate the column
            info = IndexInfo(index_name, table.name, column_name, tree)
            self._indexes[key] = info
            self._indexes_by_table[table.name.lower()].append(info)
            return info

    # --------------------------------------------------------------- UDFs

    def register_udf(self, name: str, fn: Callable) -> None:
        """Register (or replace) a function callable from SQL."""
        if not callable(fn):
            raise DatabaseError(f"UDF {name!r} is not callable")
        with self._write_lock:
            self._udfs[name.lower()] = fn

    def udf(self, name: str) -> Callable:
        try:
            return self._udfs[name.lower()]
        except KeyError:
            raise DatabaseError(f"no such function {name!r}") from None

    def has_udf(self, name: str) -> bool:
        return name.lower() in self._udfs

    # ---------------------------------------------------------------- SQL

    def execute(self, sql: str, **params):
        """Parse, plan and run a SQL statement.

        SELECT returns a :class:`~repro.minidb.planner.ResultSet`; DDL and
        INSERT return row counts.  ``params`` substitute ``:name``
        placeholders in the statement.
        """
        from repro.minidb.planner import execute_sql

        return execute_sql(self, sql, params)

    def explain(self, sql: str, *, analyze: bool = False, **params) -> str:
        """EXPLAIN (or EXPLAIN ANALYZE) a SELECT, returned as text.

        Equivalent to executing ``EXPLAIN [ANALYZE] <sql>``; provided so
        applications need not splice the keyword into their SQL.
        """
        prefix = "EXPLAIN ANALYZE " if analyze else "EXPLAIN "
        result = self.execute(prefix + sql, **params)
        return "\n".join(row[0] for row in result.rows)
