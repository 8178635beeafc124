"""FileBackend + snapshot codec tests: round-trips, batching, recovery."""

from __future__ import annotations

import io
import json
import os

import numpy as np
import pytest

from repro import faults
from repro.core.engine import create_phonetic_accelerator
from repro.core.matcher import LexEqualMatcher
from repro.errors import StorageError
from repro.minidb.catalog import Database
from repro.minidb.schema import Column
from repro.minidb.values import SqlType
from repro.parallel.table import EncodedNameTable
from repro.storage import open_database, snapshots
from repro.storage.wal import replay as wal_replay
from repro.storage import layout


@pytest.fixture(autouse=True)
def _clean_faults():
    faults.reset()
    yield
    faults.reset()


PEOPLE = [
    Column("id", SqlType.INTEGER, nullable=False),
    Column("name", SqlType.TEXT, nullable=False),
]


def _people_db(data_dir, **kwargs) -> Database:
    db = open_database(str(data_dir), **kwargs)
    if "people" not in db.table_names():
        db.create_table("people", PEOPLE)
    return db


# -------------------------------------------------------- durability


def test_rows_survive_reopen_without_checkpoint(tmp_path):
    db = _people_db(tmp_path)
    db.insert("people", (1, "Nehru"))
    db.insert("people", (2, "Nero"))
    db.storage.close()

    db = open_database(str(tmp_path))
    assert sorted(db.table("people").rows()) == [(1, "Nehru"), (2, "Nero")]
    db.storage.close()


def test_tombstones_round_trip_through_checkpoint(tmp_path):
    db = _people_db(tmp_path)
    for i in range(5):
        db.insert("people", (i, f"Row{i}"))
    db.create_index("idx_id", "people", "id")
    db.delete_row("people", 2)
    db.checkpoint()
    # Post-checkpoint delta: one insert, one delete.
    rowid = db.insert("people", (9, "Late"))
    db.delete_row("people", 0)
    db.storage.close()

    db = open_database(str(tmp_path))
    rows = sorted(db.table("people").rows())
    assert rows == [(1, "Row1"), (3, "Row3"), (4, "Row4"), (9, "Late")]
    # Rowid fidelity: a fresh insert must not reuse a recovered slot.
    assert db.insert("people", (10, "Next")) == rowid + 1
    tree = db.index("idx_id").tree
    tree.check_invariants()
    assert tree.search(9) and not tree.search(2)
    db.storage.close()


def test_transaction_batches_into_one_commit(tmp_path):
    db = _people_db(tmp_path)
    with db.transaction():
        for i in range(10):
            db.insert("people", (i, f"Row{i}"))
    db.storage.close()

    info = wal_replay(layout.wal_path(str(tmp_path)))
    assert not info.damaged
    # create_table = 1 batch; the 10 inserts share a single commit.
    assert len(info.batches) == 2
    assert [r.op for r in info.batches[1]] == ["insert"] * 10


def test_mid_transaction_state_is_not_committed(tmp_path):
    db = _people_db(tmp_path)
    db.insert("people", (1, "Before"))
    with db.transaction():
        db.insert("people", (2, "Inside"))
        # What a crash at this instant would recover: the WAL on disk
        # has no commit marker for the in-flight batch.
        info = wal_replay(layout.wal_path(str(tmp_path)))
        committed = [
            r.args for batch in info.batches for r in batch
            if r.op == "insert"
        ]
        assert [args[2] for args in committed] == [(1, "Before")]
    db.storage.close()


def test_ddl_round_trips_without_checkpoint(tmp_path):
    db = _people_db(tmp_path)
    db.create_index("idx_id", "people", "id")
    db.insert("people", (7, "Only"))
    db.drop_index("idx_id")
    db.create_table("extra", [Column("x", SqlType.REAL, nullable=True)])
    db.drop_table("extra")
    db.storage.close()

    db = open_database(str(tmp_path))
    assert tuple(db.table_names()) == ("people",)
    assert not db.indexes_for("people")
    assert list(db.table("people").rows()) == [(7, "Only")]
    db.storage.close()


def test_checkpoint_failpoint_preserves_previous_checkpoint(tmp_path):
    db = _people_db(tmp_path)
    db.insert("people", (1, "First"))
    db.checkpoint()
    db.insert("people", (2, "Second"))
    faults.configure("storage.checkpoint", count=1)
    with pytest.raises(StorageError):
        db.checkpoint()
    # The aborted attempt must not have clobbered the good checkpoint,
    # and the WAL still carries the delta.
    db.storage.close()
    db = open_database(str(tmp_path))
    assert sorted(db.table("people").rows()) == [(1, "First"), (2, "Second")]
    db.storage.close()


def test_crash_between_checkpoint_rename_and_wal_reset(tmp_path):
    db = _people_db(tmp_path)
    for i in range(5):
        db.insert("people", (i, f"Row{i}"))
    faults.configure("storage.checkpoint.post_rename", count=1)
    with pytest.raises(StorageError):
        db.checkpoint()
    # The surviving process may keep committing: those records carry
    # LSNs above the checkpoint's high-water mark and must replay.
    db.insert("people", (5, "Row5"))
    db.storage.close()

    # New checkpoint + stale untruncated WAL: recovery must skip the
    # already-folded records instead of double-applying them (which
    # would raise a rowid-drift StorageError and brick the directory).
    db = open_database(str(tmp_path))
    assert sorted(db.table("people").rows()) == [
        (i, f"Row{i}") for i in range(6)
    ]
    db.storage.close()


def test_wal_lsns_stay_monotonic_across_reopen(tmp_path):
    db = _people_db(tmp_path)
    db.insert("people", (1, "One"))
    db.checkpoint()  # WAL resets; the file is now empty
    db.storage.close()

    # A fresh process would restart LSNs at 1 from the empty file; they
    # must be bumped past the checkpoint's high-water mark or the next
    # recovery would skip these records as "already folded in".
    db = open_database(str(tmp_path))
    db.insert("people", (2, "Two"))
    db.storage.close()

    db = open_database(str(tmp_path))
    assert sorted(db.table("people").rows()) == [(1, "One"), (2, "Two")]
    db.storage.close()


def test_concurrent_inserts_and_checkpoints_do_not_deadlock(tmp_path):
    import threading

    db = _people_db(tmp_path, sync=False)
    errors: list[Exception] = []
    done = threading.Event()

    def writer():
        try:
            for i in range(200):
                db.insert("people", (i, f"Row{i}"))
        except Exception as exc:  # pragma: no cover - failure path
            errors.append(exc)
        finally:
            done.set()

    def checkpointer():
        try:
            while not done.is_set():
                db.checkpoint()
            db.checkpoint()
        except Exception as exc:  # pragma: no cover - failure path
            errors.append(exc)

    threads = [
        threading.Thread(target=writer, daemon=True),
        threading.Thread(target=checkpointer, daemon=True),
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    assert not any(t.is_alive() for t in threads), (
        "insert/checkpoint deadlocked (lock-order inversion)"
    )
    assert not errors, errors
    db.storage.close()

    db = open_database(str(tmp_path))
    assert len(list(db.table("people").rows())) == 200
    db.storage.close()


def test_drop_table_clears_stats(tmp_path):
    db = _people_db(tmp_path)
    db.insert("people", (1, "One"))
    assert db.analyze() > 0
    assert db.stats.table("people") is not None
    db.drop_table("people")
    assert db.stats.table("people") is None
    db.storage.close()

    # The persisted stats catalog must not resurrect the dropped table
    # (its row counts would skew the cost-based planner on a recreate).
    db = open_database(str(tmp_path))
    assert db.stats.table("people") is None
    db.storage.close()


def test_manifest_version_mismatch_refuses_to_open(tmp_path):
    db = _people_db(tmp_path)
    db.checkpoint()  # checkpoints (re)write the manifest
    db.storage.close()
    path = layout.manifest_path(str(tmp_path))
    manifest = json.loads(open(path).read())
    manifest["format_version"] = 99
    open(path, "w").write(json.dumps(manifest))
    with pytest.raises(StorageError, match="format v99"):
        open_database(str(tmp_path))


def test_stats_persist_across_reopen(tmp_path):
    db = _people_db(tmp_path)
    for i in range(4):
        db.insert("people", (i, f"Row{i}"))
    assert db.analyze() > 0
    before = db.stats.to_dict()
    db.storage.close()

    db = open_database(str(tmp_path))
    assert db.stats.to_dict() == before
    db.storage.close()


def test_artifact_round_trip_and_corruption(tmp_path):
    db = _people_db(tmp_path)
    payload = {"kind": "demo", "numbers": list(range(8))}
    db.storage.register_artifact("demo_art", lambda: payload)
    db.checkpoint()
    db.storage.close()

    db = open_database(str(tmp_path))
    assert db.storage.load_artifact("demo_art") == payload
    db.storage.close()

    # Corrupt the artifact file: load must fail soft (None → rebuild),
    # never return mangled data.
    art = layout.index_path(str(tmp_path), "demo_art")
    data = bytearray(open(art, "rb").read())
    data[-1] ^= 0xFF
    open(art, "wb").write(bytes(data))
    db = open_database(str(tmp_path))
    assert db.storage.load_artifact("demo_art") is None
    db.storage.close()


def test_accelerator_snapshot_differential(tmp_path):
    matcher = LexEqualMatcher()
    names = ["Nehru", "Nero", "Niru", "Karam", "Carson", "Sarala"]
    db = _people_db(tmp_path, matcher=matcher)
    acc = create_phonetic_accelerator(db, "people", "name", matcher)
    for i, name in enumerate(names):
        db.insert("people", (i, name))
    db.checkpoint()
    # Delta after the checkpoint: attach must TTP only this row.
    db.insert("people", (len(names), "Meera"))
    db.storage.close()

    reopened = open_database(str(tmp_path), matcher=matcher)
    attached = reopened.accelerator_for("people", "name")
    assert attached is not None
    for query in [*names, "Meera", "Zzz"]:
        got = attached.candidate_rowids(query, None)
        want = acc.candidate_rowids(query, None)
        assert got == want, (query, got, want)
    reopened.storage.close()


# ---------------------------------------------------- snapshot codecs


def test_snapshot_container_rejects_wrong_kind_and_damage(tmp_path):
    buf = io.BytesIO()
    snapshots.dump(buf, "btree", {"hello": 1})
    good = buf.getvalue()

    loaded = snapshots.load(io.BytesIO(good), "btree")
    assert loaded == {"hello": 1}
    with pytest.raises(StorageError, match="kind"):
        snapshots.load(io.BytesIO(good), "checkpoint")
    with pytest.raises(StorageError, match="magic"):
        snapshots.load(io.BytesIO(b"NOTSNAP!" + good[8:]), "btree")
    clipped = good[:-2]
    with pytest.raises(StorageError):
        snapshots.load(io.BytesIO(clipped), "btree")
    flipped = bytearray(good)
    flipped[-1] ^= 0xFF
    with pytest.raises(StorageError, match="CRC"):
        snapshots.load(io.BytesIO(bytes(flipped)), "btree")


def test_encoded_table_codec_differential():
    costs = LexEqualMatcher().costs
    rows = [
        (0, "english", ("n", "e", "h", "r", "u")),
        (1, "english", ("n", "e", "r", "o")),
        (2, "tamil", ("n", "e", "r", "u")),
    ]
    table = EncodedNameTable.from_rows(costs, rows)
    restored = snapshots.restore_encoded_table(
        snapshots.encoded_table_state(table), costs
    )
    assert np.array_equal(restored.codes, table.codes)
    assert np.array_equal(restored.offsets, table.offsets)
    assert np.array_equal(restored.ids, table.ids)
    assert np.array_equal(restored.lang_codes, table.lang_codes)
    assert restored.languages == table.languages
    query = ("n", "e", "r", "u")
    assert np.array_equal(
        restored.encode_query(query), table.encode_query(query)
    )
