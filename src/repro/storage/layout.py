"""On-disk layout of a LexEQUAL data directory (DESIGN.md §10).

Every durable artifact name lives here and nowhere else: the lint rule
LEX-A006 flags these literals (and ``.idx``-suffixed paths) anywhere
outside ``repro.storage``, so the durability invariants — what gets
fsynced when, which files the WAL protects — cannot leak into other
subsystems.

A data directory looks like::

    data/
      MANIFEST.json     # format version, accelerator meta
      wal.log           # write-ahead log since the last checkpoint
      checkpoint.bin    # schemas + heap slots + index snapshots
                        # + the WAL high-water mark it folded in
      stats.json        # ANALYZE output (the persisted stats catalog)
      indexes/          # one .idx snapshot per registered artifact
        accel_books_author.idx
"""

from __future__ import annotations

import os

#: Bump when the WAL record schema or checkpoint payload changes shape.
FORMAT_VERSION = 1

MANIFEST_FILENAME = "MANIFEST.json"
WAL_FILENAME = "wal.log"
CHECKPOINT_FILENAME = "checkpoint.bin"
STATS_FILENAME = "stats.json"
INDEX_DIRNAME = "indexes"
INDEX_SUFFIX = ".idx"

#: Artifact names must be path-safe (they become ``indexes/<name>.idx``).
_SAFE = frozenset(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_-."
)


def safe_artifact_name(name: str) -> str:
    """Normalize an artifact name into a path-safe filename stem."""
    return "".join(c if c in _SAFE else "_" for c in name) or "artifact"


def fsync_dir(path: str) -> None:
    """fsync a directory so renames/creations inside it are durable.

    POSIX only guarantees a rename (or a new file's directory entry)
    survives power loss once the *containing directory's* metadata is
    on disk; fsyncing the file alone is not enough.  Platforms where
    directories cannot be opened (e.g. Windows) skip silently — there
    the rename-durability semantics differ anyway.
    """
    flags = os.O_RDONLY | getattr(os, "O_DIRECTORY", 0)
    try:
        fd = os.open(path or ".", flags)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - fs without dir-fsync support
        pass
    finally:
        os.close(fd)


def manifest_path(data_dir: str) -> str:
    return os.path.join(data_dir, MANIFEST_FILENAME)


def wal_path(data_dir: str) -> str:
    return os.path.join(data_dir, WAL_FILENAME)


def checkpoint_path(data_dir: str) -> str:
    return os.path.join(data_dir, CHECKPOINT_FILENAME)


def stats_path(data_dir: str) -> str:
    return os.path.join(data_dir, STATS_FILENAME)


def index_dir(data_dir: str) -> str:
    return os.path.join(data_dir, INDEX_DIRNAME)


def index_path(data_dir: str, artifact_name: str) -> str:
    return os.path.join(
        index_dir(data_dir), safe_artifact_name(artifact_name) + INDEX_SUFFIX
    )

