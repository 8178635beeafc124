"""The write-ahead log: length-prefixed, CRC-checked, commit-marked.

Record format (little-endian, DESIGN.md §10.2)::

    [u32 payload_len][u32 crc32(payload)][payload]
    payload = pickle((lsn, op, args))

Mutations append records; :meth:`WriteAheadLog.commit` appends a commit
marker and fsyncs, so the durability boundary is exactly the commit
marker: replay applies a batch of records only when the marker that
closes it was fully on disk.  A torn or corrupt record (a crash mid
``write(2)``) ends replay at the last committed batch and the damaged
tail is truncated away — committed state is never affected by an
uncommitted tail.

Failpoints (``repro.faults``): ``storage.wal.append`` tears a record in
half mid-write (then poisons the log — the writing process is presumed
dead), ``storage.wal.fsync`` fires just before ``fsync`` (configure it
with ``error=io`` to simulate a failing disk), ``storage.checkpoint``
aborts a checkpoint between WAL append and the checkpoint rename, and
``storage.checkpoint.post_rename`` aborts it in the window between the
checkpoint rename and the WAL reset (recovery must then *skip* the
stale records the new checkpoint already folded in).
"""

from __future__ import annotations

import os
import pickle
import struct
import zlib
from typing import NamedTuple

from repro import faults, obs
from repro.errors import StorageError
from repro.storage import layout

_HEADER = struct.Struct("<II")

#: The op name of the commit marker record.
COMMIT_OP = "commit"


class WalRecord(NamedTuple):
    """One decoded WAL record."""

    lsn: int
    op: str
    args: tuple


class WalReplay(NamedTuple):
    """Result of scanning a WAL file."""

    batches: list[list[WalRecord]]  # committed batches, in log order
    next_lsn: int
    valid_bytes: int  # offset just past the last commit marker
    damaged: bool  # True when a torn/corrupt record ended the scan


def _encode(lsn: int, op: str, args: tuple) -> bytes:
    payload = pickle.dumps((lsn, op, args), protocol=pickle.HIGHEST_PROTOCOL)
    return _HEADER.pack(len(payload), zlib.crc32(payload)) + payload


def replay(path: str) -> WalReplay:
    """Scan a WAL file into committed batches (uncommitted tail dropped).

    Never raises on damage: a short header, short payload, CRC mismatch
    or unpicklable payload simply ends the scan at the last committed
    batch, with ``damaged=True`` so the caller can truncate.
    """
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except FileNotFoundError:
        return WalReplay([], 1, 0, False)
    batches: list[list[WalRecord]] = []
    pending: list[WalRecord] = []
    next_lsn = 1
    valid_bytes = 0
    damaged = False
    offset = 0
    size = len(data)
    while offset < size:
        if offset + _HEADER.size > size:
            damaged = True
            break
        length, crc = _HEADER.unpack_from(data, offset)
        start = offset + _HEADER.size
        end = start + length
        if end > size:
            damaged = True
            break
        payload = data[start:end]
        if zlib.crc32(payload) != crc:
            damaged = True
            break
        try:
            lsn, op, args = pickle.loads(payload)
        except Exception:
            damaged = True
            break
        next_lsn = lsn + 1
        if op == COMMIT_OP:
            if pending:
                batches.append(pending)
                pending = []
            valid_bytes = end
        else:
            pending.append(WalRecord(lsn, op, tuple(args)))
        offset = end
    # ``pending`` (records after the last commit marker) is discarded:
    # those writes never committed.
    return WalReplay(batches, next_lsn, valid_bytes, damaged)


class WriteAheadLog:
    """Append/commit interface over one WAL file."""

    def __init__(self, path: str, *, sync: bool = True, next_lsn: int = 1):
        self.path = path
        self.sync = sync
        self._next_lsn = next_lsn
        self._poisoned = False
        created = not os.path.exists(path)
        self._file = open(path, "ab")
        if created:
            # The directory entry must be durable too, or a power loss
            # could drop the file while later appends "committed".
            layout.fsync_dir(os.path.dirname(path))
        self._dirty = False

    @classmethod
    def open(
        cls, path: str, *, sync: bool = True
    ) -> tuple["WriteAheadLog", WalReplay]:
        """Open (creating if missing), truncating any damaged tail.

        Returns the log positioned for appends plus the committed
        batches found on disk, which the caller replays into the
        catalog.
        """
        info = replay(path)
        try:
            size = os.path.getsize(path)
        except OSError:
            size = 0
        if size > info.valid_bytes:
            if info.damaged:
                obs.incr("storage.wal.torn_tail_truncated")
            with open(path, "ab") as fh:
                fh.truncate(info.valid_bytes)
                fh.flush()
                os.fsync(fh.fileno())
        return cls(path, sync=sync, next_lsn=info.next_lsn), info

    @property
    def last_lsn(self) -> int:
        """The highest LSN handed out so far (0 = nothing appended)."""
        return self._next_lsn - 1

    def ensure_next_lsn(self, min_next: int) -> None:
        """Raise the next LSN to at least ``min_next``.

        Recovery calls this with the checkpoint's WAL high-water mark
        + 1: LSNs must stay monotonic *across* checkpoints and process
        restarts, or records written after a reset would sort at or
        below the mark and be skipped by the next recovery.
        """
        if min_next > self._next_lsn:
            self._next_lsn = min_next

    def append(self, op: str, args: tuple) -> int:
        """Append one record (buffered; durable only after commit)."""
        if self._poisoned:
            raise StorageError(
                f"WAL {self.path!r} is poisoned by an earlier torn write"
            )
        lsn = self._next_lsn
        self._next_lsn += 1
        record = _encode(lsn, op, args)
        if faults.fire("storage.wal.append"):
            # Simulate a crash mid-write: half the record reaches the
            # disk, then the process "dies".  The log refuses further
            # appends so a surviving test harness cannot write past the
            # tear.
            self._file.write(record[: max(1, len(record) // 2)])
            self._file.flush()
            os.fsync(self._file.fileno())
            self._poisoned = True
            raise StorageError(
                f"injected torn WAL record at lsn {lsn} ({self.path!r})"
            )
        self._file.write(record)
        self._dirty = True
        obs.incr("storage.wal.records")
        return lsn

    def commit(self) -> None:
        """Append a commit marker and make everything before it durable."""
        if not self._dirty:
            return
        lsn = self._next_lsn
        self._next_lsn += 1
        self._file.write(_encode(lsn, COMMIT_OP, ()))
        self._file.flush()
        faults.fire("storage.wal.fsync")
        if self.sync:
            os.fsync(self._file.fileno())
        self._dirty = False
        obs.incr("storage.wal.commits")

    def reset(self) -> None:
        """Truncate the log after a successful checkpoint."""
        self._file.truncate(0)
        self._file.seek(0)
        self._file.flush()
        os.fsync(self._file.fileno())
        self._dirty = False

    def close(self) -> None:
        try:
            self._file.close()
        except OSError:  # pragma: no cover - best effort on teardown
            pass
