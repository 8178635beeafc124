"""``repro.storage`` — pluggable durability for the minidb engine.

The subsystem the paper's "database system support" framing implies but
our reproduction lacked: a :class:`~repro.storage.manager.StorageManager`
interface with an in-memory backend (the previous behaviour) and a
durable file backend — write-ahead log with fsync-on-commit,
checkpointing, crash recovery by WAL replay — plus snapshot
serialization of the B+ tree indexes and the phonetic accelerators'
phoneme strings and candidate sources so a reopened database *attaches* its
indexes instead of re-deriving phonemes for every row.

Usage::

    from repro.storage import open_database

    db = open_database("data/")          # recovers committed state
    db.execute("ANALYZE")                # refresh + persist statistics
    db.checkpoint()                      # fold the WAL into a snapshot

All durable-format knowledge (file names, record layouts) lives inside
this package; lint rule LEX-A006 keeps it that way.
"""

from repro.storage.manager import FileBackend, MemoryBackend, StorageManager

__all__ = [
    "FileBackend",
    "MemoryBackend",
    "StorageManager",
    "open_database",
]


def __getattr__(name: str):
    # Lazy: bootstrap imports the catalog, which imports this package's
    # manager — resolving open_database on first use keeps the import
    # graph acyclic.
    if name == "open_database":
        from repro.storage.bootstrap import open_database

        return open_database
    raise AttributeError(name)
