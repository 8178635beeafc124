"""Pluggable storage backends for the minidb catalog.

A :class:`~repro.minidb.catalog.Database` notifies its
:class:`StorageManager` of every committed mutation.  The
:class:`MemoryBackend` (the default) ignores them — today's in-memory
behaviour, zero durability, zero overhead beyond a no-op call.  The
:class:`FileBackend` turns them into WAL records with fsync-on-commit,
periodically folds the log into a checkpoint (heap slots, B+ tree
snapshots, registered accelerator artifacts), and replays the WAL over
the last checkpoint at open — the classical recovery contract: after a
crash, exactly the committed mutations are visible.

The backend also owns the persisted stats catalog (``ANALYZE`` output)
and the accelerator manifest, so :func:`repro.storage.open_database`
can re-attach phonetic indexes instead of rebuilding them.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager

from repro import faults, obs
from repro.errors import StorageError
from repro.locks import make_rlock
from repro.storage import layout, snapshots
from repro.storage.wal import WalReplay, WriteAheadLog


class StorageManager:
    """Interface the catalog drives; base class is fully in-memory."""

    #: True when mutations survive process death (drives WAL/manifest
    #: bookkeeping in callers that is pointless for the memory backend).
    persistent = False

    #: True while recovery replays logged state into the catalog
    #: (mutation hooks and stats persistence must not re-log it).
    replaying = False

    # -- catalog mutation hooks (called with the catalog lock held) ----

    def on_create_table(self, schema) -> None:
        pass

    def on_drop_table(self, name: str) -> None:
        pass

    def on_create_index(
        self, name: str, table_name: str, column_name: str, order: int
    ) -> None:
        pass

    def on_drop_index(self, name: str) -> None:
        pass

    def on_insert(self, table_name: str, rowid: int, row: tuple) -> None:
        pass

    def on_delete(self, table_name: str, rowid: int) -> None:
        pass

    # -- grouping / durability ----------------------------------------

    @property
    def wal_high_water_lsn(self) -> int | None:
        """Last committed WAL LSN, or ``None`` for non-durable backends.

        Surfaced by the server's ``health`` op so operators can see
        recovery progress.
        """
        return None

    @contextmanager
    def transaction(self):
        """Group mutations into one commit (no-op in memory)."""
        yield self

    def checkpoint(self, db) -> None:
        """Fold the WAL into a new checkpoint (no-op in memory)."""

    def close(self) -> None:
        pass

    # -- stats + artifacts --------------------------------------------

    def save_stats(self, payload: dict) -> None:
        pass

    def load_stats(self) -> dict | None:
        return None

    def register_artifact(self, name: str, provider) -> None:
        """Register ``provider() -> picklable state`` snapshotted at
        checkpoint time (e.g. an accelerator's index structures)."""

    def load_artifact(self, name: str) -> object | None:
        return None

    def register_accelerator_meta(self, meta: dict) -> None:
        pass

    def accelerator_meta(self) -> list[dict]:
        return []


class MemoryBackend(StorageManager):
    """The current in-memory behaviour: nothing is durable."""


class FileBackend(StorageManager):
    """Durable single-directory backend: WAL + checkpoint + artifacts."""

    persistent = True

    def __init__(self, data_dir: str, *, sync: bool = True):
        self.data_dir = data_dir
        os.makedirs(data_dir, exist_ok=True)
        os.makedirs(layout.index_dir(data_dir), exist_ok=True)
        self._lock = make_rlock("storage.backend")
        self._txn_depth = 0
        self._artifacts: dict[str, object] = {}
        #: True while open_database() replays recovered state; mutation
        #: hooks must not re-log what the WAL already holds.
        self.replaying = False
        self._manifest = self._load_manifest()
        self._checkpoint = self._load_checkpoint()
        #: WAL high-water mark folded into the last checkpoint: records
        #: at or below it are already in the checkpoint and must never
        #: be replayed again (a crash between the checkpoint rename and
        #: the WAL reset leaves them behind on disk).
        self._checkpoint_wal_lsn = (
            (self._checkpoint or {}).get("wal_lsn", 0)
        )
        self._wal, self._replay = WriteAheadLog.open(
            layout.wal_path(data_dir), sync=sync
        )
        self._wal.ensure_next_lsn(self._checkpoint_wal_lsn + 1)

    # ------------------------------------------------------- recovery

    def _load_manifest(self) -> dict:
        try:
            with open(layout.manifest_path(self.data_dir)) as fh:
                manifest = json.load(fh)
        except FileNotFoundError:
            return {"format_version": layout.FORMAT_VERSION, "accelerators": []}
        except (OSError, ValueError) as exc:
            raise StorageError(
                f"unreadable manifest in {self.data_dir!r}: {exc}"
            ) from exc
        version = manifest.get("format_version")
        if version != layout.FORMAT_VERSION:
            raise StorageError(
                f"data dir {self.data_dir!r} has format v{version}, "
                f"this build supports v{layout.FORMAT_VERSION}"
            )
        return manifest

    def _load_checkpoint(self) -> dict | None:
        path = layout.checkpoint_path(self.data_dir)
        if not os.path.exists(path):
            return None
        with open(path, "rb") as fh:
            return snapshots.load(fh, "checkpoint")

    def recovered_checkpoint(self) -> dict | None:
        """The last checkpoint payload, or None (fresh directory).

        The payload cached at open is released on first call (heap
        slots can be large); later calls re-read the file.
        """
        if self._checkpoint is not None:
            payload, self._checkpoint = self._checkpoint, None
            return payload
        return self._load_checkpoint()

    def recovered_wal(self) -> WalReplay:
        """Committed WAL batches newer than the checkpoint (replayed
        over it by :func:`repro.storage.open_database`).

        Records at or below the checkpoint's WAL high-water mark are
        already folded into the checkpoint — they survive on disk only
        when a crash hit between the checkpoint rename and the WAL
        reset — and replaying them again would double-apply mutations,
        so they are dropped here.
        """
        if not self._checkpoint_wal_lsn:
            return self._replay
        batches = [
            [r for r in batch if r.lsn > self._checkpoint_wal_lsn]
            for batch in self._replay.batches
        ]
        skipped = len(self._replay.batches) - sum(1 for b in batches if b)
        if skipped:
            obs.incr("storage.wal.stale_batches_skipped", skipped)
        return self._replay._replace(batches=[b for b in batches if b])

    @property
    def wal_high_water_lsn(self) -> int | None:
        return self._wal.last_lsn

    # ------------------------------------------------- mutation hooks

    def _log(self, op: str, args: tuple) -> None:
        if self.replaying:
            return
        with self._lock:
            self._wal.append(op, args)
            if self._txn_depth == 0:
                self._wal.commit()

    def on_create_table(self, schema) -> None:
        columns = [
            (c.name, c.type.name, c.nullable) for c in schema.columns
        ]
        self._log("create_table", (schema.name, columns))

    def on_drop_table(self, name: str) -> None:
        self._log("drop_table", (name,))

    def on_create_index(
        self, name: str, table_name: str, column_name: str, order: int
    ) -> None:
        self._log("create_index", (name, table_name, column_name, order))

    def on_drop_index(self, name: str) -> None:
        self._log("drop_index", (name,))

    def on_insert(self, table_name: str, rowid: int, row: tuple) -> None:
        self._log("insert", (table_name, rowid, row))

    def on_delete(self, table_name: str, rowid: int) -> None:
        self._log("delete", (table_name, rowid))

    # ------------------------------------------------------ grouping

    @contextmanager
    def transaction(self):
        """Batch mutations into one WAL commit (one fsync at the end)."""
        with self._lock:
            self._txn_depth += 1
        try:
            yield self
        finally:
            with self._lock:
                self._txn_depth -= 1
                if self._txn_depth == 0 and not self.replaying:
                    self._wal.commit()

    # ---------------------------------------------------- checkpoint

    def checkpoint(self, db) -> None:
        """Atomically replace the checkpoint and truncate the WAL.

        Crash-safe ordering: artifacts and the new checkpoint — which
        records the WAL high-water mark (``wal_lsn``) it folded in —
        are written to temp files, fsynced, renamed into place, and
        the containing directory fsynced; only then does the WAL
        reset.  A crash before the rename leaves the old checkpoint +
        full WAL; a crash between the rename and the reset leaves the
        new checkpoint + a stale WAL whose records all sit at or below
        the recorded high-water mark, so recovery skips them instead
        of replaying them twice (the ``storage.checkpoint.post_rename``
        failpoint exercises exactly this window).

        Lock order is catalog -> backend, the same order the mutation
        hooks use (they fire under the catalog write lock and then take
        the backend lock), so a checkpoint can never deadlock against a
        concurrent writer.
        """
        with db.write_lock, self._lock, obs.timed("storage.checkpoint"):
            state = db.snapshot_state()
            wal_lsn = self._wal.last_lsn
            payload = {
                "wal_lsn": wal_lsn,
                "tables": state["tables"],
                "indexes": [
                    {
                        "name": ix["name"],
                        "table": ix["table"],
                        "column": ix["column"],
                        "state": snapshots.btree_state(ix["tree"]),
                    }
                    for ix in state["indexes"]
                ],
            }
            for name, provider in self._artifacts.items():
                artifact = provider()
                if artifact is None:
                    continue
                self._write_atomic(
                    layout.index_path(self.data_dir, name),
                    lambda fh, a=artifact: snapshots.dump(fh, "artifact", a),
                )
            if faults.fire("storage.checkpoint"):
                raise StorageError(
                    "injected checkpoint abort before rename "
                    f"({self.data_dir!r})"
                )
            self._write_atomic(
                layout.checkpoint_path(self.data_dir),
                lambda fh: snapshots.dump(fh, "checkpoint", payload),
            )
            self._write_manifest()
            if faults.fire("storage.checkpoint.post_rename"):
                raise StorageError(
                    "injected crash between checkpoint rename and WAL "
                    f"reset ({self.data_dir!r})"
                )
            self._wal.reset()
            self._checkpoint_wal_lsn = wal_lsn
            obs.incr("storage.checkpoint.completed")

    def _write_atomic(self, path: str, write_fn) -> None:
        tmp = path + ".tmp"
        with open(tmp, "wb") as fh:
            write_fn(fh)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
        # The rename itself is durable only once the directory entry is.
        layout.fsync_dir(os.path.dirname(path))

    def _write_manifest(self) -> None:
        body = json.dumps(self._manifest, indent=2, sort_keys=True)
        self._write_atomic(
            layout.manifest_path(self.data_dir),
            lambda fh: fh.write(body.encode("utf-8")),
        )

    # -------------------------------------------------------- stats

    def save_stats(self, payload: dict) -> None:
        body = json.dumps(payload, indent=2, sort_keys=True)
        self._write_atomic(
            layout.stats_path(self.data_dir),
            lambda fh: fh.write(body.encode("utf-8")),
        )

    def load_stats(self) -> dict | None:
        try:
            with open(layout.stats_path(self.data_dir)) as fh:
                return json.load(fh)
        except FileNotFoundError:
            return None
        except (OSError, ValueError):
            obs.incr("storage.stats.unreadable")
            return None

    # ---------------------------------------------------- artifacts

    def register_artifact(self, name: str, provider) -> None:
        with self._lock:
            self._artifacts[name] = provider

    def load_artifact(self, name: str) -> object | None:
        """A persisted artifact's state; None means "rebuild instead".

        Corruption is deliberately non-fatal here: an index snapshot is
        derived data, so the worst case of a damaged ``.idx`` file is a
        slower open, never wrong answers.
        """
        path = layout.index_path(self.data_dir, name)
        try:
            with open(path, "rb") as fh:
                return snapshots.load(fh, "artifact")
        except FileNotFoundError:
            return None
        except (StorageError, OSError):
            obs.incr("storage.artifact.unreadable")
            return None

    def register_accelerator_meta(self, meta: dict) -> None:
        """Record an accelerator in the manifest (written immediately,
        so a reopen before the first checkpoint still re-creates it)."""
        with self._lock:
            entries = [
                entry
                for entry in self._manifest.setdefault("accelerators", [])
                if not (
                    entry["table"] == meta["table"]
                    and entry["column"] == meta["column"]
                )
            ]
            entries.append(meta)
            self._manifest["accelerators"] = entries
            self._write_manifest()

    def accelerator_meta(self) -> list[dict]:
        return list(self._manifest.get("accelerators", []))

    # ------------------------------------------------------ lifecycle

    def close(self) -> None:
        with self._lock:
            self._wal.close()
