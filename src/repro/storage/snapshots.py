"""Versioned, checksummed snapshots of the engine's index structures.

The point of a snapshot is that reopening a database *attaches* its
indexes instead of rebuilding them — for the phonetic structures that
skips the TTP pass over every row, which dominates cold-start time.

Container format (``dump``/``load``): an 8-byte magic, the snapshot
``kind`` (so a B-tree file cannot be loaded as a checkpoint), the format
version, a CRC32 of the pickled payload, and the payload itself.  A
truncated, corrupt or wrong-kind file raises
:class:`~repro.errors.StorageError` — recovery treats that as "rebuild
this index from the heap", never as silent data loss.

Structure codecs:

* :func:`btree_state` / :func:`restore_btree` — a B+ tree as its
  in-order ``(key, bucket)`` items.  Rebuilding via the linear-time
  ``bulk_load`` sidesteps pickling the node graph (the leaf ``next``
  chain of a 200k-row tree is thousands of links deep — deeper than
  the pickle recursion limit) and re-validates key order on load.
* :func:`encoded_table_state` / :func:`restore_encoded_table` — the
  CSR arrays of a :class:`~repro.parallel.table.EncodedNameTable`; the
  cost matrices are recomputed from the (small) symbol list rather than
  stored.

The candidate sources of :mod:`repro.core.sources` carry their own
``state()``/``from_state()`` codecs; the ``.ann`` sidecar filename the
embedding matrix is stored under is the storage layer's own business
(see :data:`repro.storage.layout.ANN_INDEX_SUFFIX`).
"""

from __future__ import annotations

import io
import pickle
import struct
import zlib

from repro.errors import StorageError
from repro.storage.layout import FORMAT_VERSION

_MAGIC = b"LEXSNAP\x01"
_HEAD = struct.Struct("<HHIQ")  # kind_len, version, crc32, payload size


def dump(fh: io.BufferedIOBase, kind: str, payload: object) -> None:
    """Write one snapshot container to a binary stream."""
    kind_bytes = kind.encode("utf-8")
    body = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    fh.write(_MAGIC)
    fh.write(
        _HEAD.pack(len(kind_bytes), FORMAT_VERSION, zlib.crc32(body), len(body))
    )
    fh.write(kind_bytes)
    fh.write(body)


def load(fh: io.BufferedIOBase, kind: str) -> object:
    """Read one snapshot container, verifying magic, kind and CRC."""
    magic = fh.read(len(_MAGIC))
    if magic != _MAGIC:
        raise StorageError(f"bad snapshot magic {magic!r}")
    head = fh.read(_HEAD.size)
    if len(head) != _HEAD.size:
        raise StorageError("truncated snapshot header")
    kind_len, version, crc, size = _HEAD.unpack(head)
    if version != FORMAT_VERSION:
        raise StorageError(
            f"snapshot format v{version} != supported v{FORMAT_VERSION}"
        )
    found_kind = fh.read(kind_len).decode("utf-8")
    if found_kind != kind:
        raise StorageError(
            f"snapshot kind {found_kind!r} where {kind!r} expected"
        )
    body = fh.read(size)
    if len(body) != size or zlib.crc32(body) != crc:
        raise StorageError(f"snapshot {kind!r} failed its CRC check")
    return pickle.loads(body)


# --------------------------------------------------------------- B+ tree


def btree_state(tree) -> dict:
    """A B+ tree as ``{"order", "items": [(key, [values...]), ...]}``."""
    return {
        "order": tree.order,
        "items": [(key, bucket) for key, bucket in tree.items()],
    }


def restore_btree(state: dict):
    """Rebuild a B+ tree from :func:`btree_state` output.

    ``items()`` yields in key order, so the linear-time ``bulk_load``
    path applies — no per-entry tree descent on the recovery path.
    """
    from repro.minidb.btree import BPlusTree

    return BPlusTree.bulk_load(state["items"], order=state["order"])


# ------------------------------------------------- encoded parallel table


def encoded_table_state(table) -> dict:
    """CSR arrays + symbol list of an ``EncodedNameTable``.

    Cost matrices are *not* stored: they are a pure function of the
    cost model and symbol list, recomputed on restore.
    """
    return {
        "codes": table.codes,
        "offsets": table.offsets,
        "ids": table.ids,
        "lang_codes": table.lang_codes,
        "languages": tuple(table.languages),
        "symbols": list(table.encoded.index),
    }


def restore_encoded_table(state: dict, costs):
    """Rebuild an ``EncodedNameTable`` from :func:`encoded_table_state`."""
    from repro.matching.batch import EncodedCosts
    from repro.parallel.table import EncodedNameTable

    return EncodedNameTable(
        EncodedCosts(costs, list(state["symbols"])),
        state["codes"],
        state["offsets"],
        state["ids"],
        state["lang_codes"],
        tuple(state["languages"]),
    )
