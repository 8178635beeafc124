"""Shared-memory segment lifecycle: create/attach/close/unlink.

The executor's contract (DESIGN.md §9) is that ``/dev/shm`` holds
exactly one ``repro_par_*`` entry per live pool and zero after any exit
path: clean ``close()``, a worker killed mid-query, an idle worker
killed between queries, and SIGTERM delivered to the owning process.
"""

from __future__ import annotations

import glob
import os
import signal
import subprocess
import sys
import threading
import time
import types

import numpy as np
import pytest

from repro import deadline
from repro.core.sources import PhonemeStore
from repro.matching.costs import ClusteredCost
from repro.parallel import EncodedNameTable, ParallelMatchExecutor
from repro.parallel import shm as shm_mod
from repro.parallel.executor import ParallelExecutionError

SHM_DIR = "/dev/shm"
HAVE_SHM_DIR = os.path.isdir(SHM_DIR)

ROWS = [
    (0, "english", ("n", "e", "h", "r", "u")),
    (1, "hindi", ("n", "eː", "h", "r", "u")),
    (2, "english", ("n", "e", "r", "o")),
    (3, "tamil", ("n", "eː", "r", "u")),
    (4, "english", ("s", "m", "i", "θ")),
]


def _table() -> EncodedNameTable:
    store = PhonemeStore(ClusteredCost(0.25))
    store.update((rid, phonemes) for rid, _lang, phonemes in ROWS)
    return EncodedNameTable.from_store(
        store, {rid: lang for rid, lang, _phonemes in ROWS}
    )


def shm_entries() -> set[str]:
    if not HAVE_SHM_DIR:
        return set()
    return {
        os.path.basename(p)
        for p in glob.glob(
            os.path.join(SHM_DIR, shm_mod.SEGMENT_PREFIX + "*")
        )
    }


# ------------------------------------------------------------- segments


class TestSharedSegment:
    def test_pack_attach_round_trip(self):
        arrays = {
            "codes": np.arange(17, dtype=np.int64),
            "costs": np.linspace(0, 1, 12).reshape(3, 4),
            "langs": np.array([0, 1, 0], dtype=np.int16),
            "empty": np.empty(0, dtype=np.float64),
        }
        segment = shm_mod.SharedSegment(arrays)
        try:
            assert segment.name.startswith(shm_mod.SEGMENT_PREFIX)
            attached = shm_mod.attach(segment.descriptor)
            for key, original in arrays.items():
                got = attached.arrays[key]
                assert got.dtype == original.dtype
                assert got.shape == original.shape
                assert np.array_equal(got, original)
            # Fields are 64-byte aligned so views are cache-friendly.
            for field in segment.descriptor.fields:
                assert field.offset % 64 == 0
            attached.close()
        finally:
            segment.unlink()

    def test_live_registry_and_idempotent_unlink(self):
        segment = shm_mod.SharedSegment(
            {"x": np.arange(4, dtype=np.int64)}
        )
        assert segment.name in shm_mod.live_segments()
        segment.unlink()
        assert segment.name not in shm_mod.live_segments()
        segment.unlink()  # second unlink is a no-op, not an error

    @pytest.mark.skipif(not HAVE_SHM_DIR, reason="no /dev/shm")
    def test_unlink_removes_dev_shm_entry(self):
        segment = shm_mod.SharedSegment(
            {"x": np.arange(8, dtype=np.int64)}
        )
        assert segment.name in shm_entries()
        segment.unlink()
        assert segment.name not in shm_entries()

    def test_attacher_close_does_not_unlink(self):
        segment = shm_mod.SharedSegment(
            {"x": np.arange(8, dtype=np.int64)}
        )
        try:
            attached = shm_mod.attach(segment.descriptor)
            attached.close()
            attached.close()  # idempotent
            # The segment survives its attachers.
            again = shm_mod.attach(segment.descriptor)
            assert np.array_equal(
                again.arrays["x"], np.arange(8, dtype=np.int64)
            )
            again.close()
        finally:
            segment.unlink()

    def test_table_share_attach_round_trip(self):
        table = _table()
        segment, descriptor = table.share()
        try:
            attached_table, attached = EncodedNameTable.attach(descriptor)
            assert np.array_equal(attached_table.codes, table.codes)
            assert np.array_equal(attached_table.offsets, table.offsets)
            assert np.array_equal(attached_table.ids, table.ids)
            assert np.array_equal(
                attached_table.encoded.sub, table.encoded.sub
            )
            assert attached_table.encoded.min_indel == (
                table.encoded.min_indel
            )
            assert attached_table.languages == table.languages
            attached.close()
        finally:
            segment.unlink()


# ------------------------------------------------------- executor paths


def _pool_executor(workers: int = 2) -> ParallelMatchExecutor:
    return ParallelMatchExecutor(_table(), workers=workers)


class TestExecutorLifecycle:
    def test_segment_unlinked_after_close(self):
        ex = _pool_executor()
        name = ex._segment.name
        assert name in shm_mod.live_segments()
        if HAVE_SHM_DIR:
            assert name in shm_entries()
        ids, _ = ex.match(("n", "e", "h", "r", "u"), 0.3)
        assert len(ids) > 0
        ex.close()
        assert name not in shm_mod.live_segments()
        if HAVE_SHM_DIR:
            assert name not in shm_entries()

    def test_close_is_idempotent_and_guards_use(self):
        ex = _pool_executor()
        ex.close()
        ex.close()
        with pytest.raises(ParallelExecutionError, match="after close"):
            ex.match(("n", "e"), 0.3)

    def test_worker_killed_mid_query_raises_and_unlinks(self):
        ex = _pool_executor()
        name = ex._segment.name
        victim = ex._workers[0].process
        # Freeze the worker so its shard result can never arrive, then
        # kill it while the query is blocked waiting on it.
        os.kill(victim.pid, signal.SIGSTOP)
        killer = threading.Timer(
            0.2, lambda: os.kill(victim.pid, signal.SIGKILL)
        )
        killer.start()
        try:
            with pytest.raises(
                ParallelExecutionError, match="died mid-query"
            ):
                ex.match(("n", "e", "h", "r", "u"), 0.3)
        finally:
            killer.cancel()
        # The crash tore the pool down and unlinked its segment ...
        assert name not in shm_mod.live_segments()
        if HAVE_SHM_DIR:
            assert name not in shm_entries()
        # ... and the next query transparently starts a fresh pool.
        ids, _ = ex.match(("n", "e", "h", "r", "u"), 0.3)
        assert len(ids) > 0
        ex.close()
        assert shm_mod.live_segments() == ()

    def test_pipe_eof_before_sentinel_still_names_the_death(
        self, monkeypatch
    ):
        """A loaded host can report the dead worker's result-pipe EOF
        before its process sentinel; the error must be the same."""
        from repro.parallel import executor as executor_mod

        ex = _pool_executor()
        name = ex._segment.name
        victim = ex._workers[0]
        # Frozen: the shard result can never arrive before the kill.
        os.kill(victim.process.pid, signal.SIGSTOP)

        def pipe_only(objects, timeout=None):
            os.kill(victim.process.pid, signal.SIGKILL)
            victim.process.join(timeout=5.0)
            return [victim.result_conn]

        monkeypatch.setattr(
            executor_mod, "connection", types.SimpleNamespace(wait=pipe_only)
        )
        with pytest.raises(
            ParallelExecutionError, match=r"died mid-query \(exitcode -9\)"
        ):
            ex.match(("n", "e", "h", "r", "u"), 0.3)
        monkeypatch.undo()
        assert name not in shm_mod.live_segments()
        ids, _ = ex.match(("n", "e", "h", "r", "u"), 0.3)
        assert len(ids) > 0
        ex.close()
        assert shm_mod.live_segments() == ()

    def test_idle_dead_worker_is_respawned_in_place(self):
        ex = _pool_executor()
        name = ex._segment.name
        victim = ex._workers[1].process
        os.kill(victim.pid, signal.SIGKILL)
        victim.join(timeout=2.0)
        assert not victim.is_alive()
        # The pool heals without tearing down: same segment, fresh
        # worker, correct answer.
        ids, _ = ex.match(("n", "e", "h", "r", "u"), 0.3)
        assert len(ids) > 0
        assert ex._segment is not None and ex._segment.name == name
        assert all(w.process.is_alive() for w in ex._workers)
        ex.close()
        if HAVE_SHM_DIR:
            assert name not in shm_entries()

    def test_pool_born_inside_deadline_scope_is_not_poisoned(self):
        # The server starts pools lazily inside a request's
        # deadline_scope; forked workers must not inherit that
        # request's armed deadline, or every later query fails once it
        # passes.
        with deadline.deadline_scope(0.05):
            ex = _pool_executor()
        time.sleep(0.1)  # the first request's deadline expires
        ids, _ = ex.match(("n", "e", "h", "r", "u"), 0.3)
        assert len(ids) > 0
        ex.close()

    def test_default_start_method_avoids_fork_with_threads(self):
        stop = threading.Event()
        thread = threading.Thread(target=stop.wait)
        thread.start()
        try:
            method = ParallelMatchExecutor._default_start_method()
        finally:
            stop.set()
            thread.join()
        assert method == "spawn"

    def test_spawn_pool_matches(self):
        ex = ParallelMatchExecutor(
            _table(), workers=2, start_method="spawn"
        )
        try:
            assert ex._ctx.get_start_method() == "spawn"
            ids, dists = ex.match(("n", "e", "h", "r", "u"), 0.3)
            assert len(ids) > 0
            assert np.all(np.isfinite(dists))
        finally:
            ex.close()
        assert shm_mod.live_segments() == ()

    def test_inline_executor_owns_no_segment(self):
        before = shm_mod.live_segments()
        ex = ParallelMatchExecutor(_table(), workers=1)
        assert ex._segment is None
        assert shm_mod.live_segments() == before
        ids, _ = ex.match(("n", "e", "h", "r", "u"), 0.3)
        assert len(ids) > 0
        ex.close()


# ----------------------------------------------------- signal cleanup


class TestSignalCleanup:
    def test_cleanup_for_signal_runs_with_registry_lock_held(self):
        # SIGTERM can land while the interrupted thread holds the
        # registry lock; the signal path must not touch it (a Lock is
        # not reentrant — this test would deadlock on regression).
        segment = shm_mod.SharedSegment(
            {"x": np.arange(4, dtype=np.int64)}
        )
        with shm_mod._live_lock:
            shm_mod._cleanup_for_signal()
        if HAVE_SHM_DIR:
            assert segment.name not in shm_entries()
        segment.unlink()  # still idempotent after the signal path

    def test_unlink_nolock_unlinks_even_after_flag_race(self):
        # A signal between unlink()'s flag-set and its shm_unlink must
        # still remove the /dev/shm entry: the signal path ignores the
        # _unlinked flag and swallows the double-unlink.
        segment = shm_mod.SharedSegment(
            {"x": np.arange(4, dtype=np.int64)}
        )
        segment._unlinked = True  # simulate the interrupted flag-set
        segment._unlink_nolock()
        if HAVE_SHM_DIR:
            assert segment.name not in shm_entries()
        segment._unlink_nolock()  # already gone: swallowed, no raise


# -------------------------------------------------- fork-child registry


class TestForgetAll:
    def test_forget_all_never_acquires_the_registry_lock(self):
        # _forget_all runs as the after_in_child fork hook: at fork time
        # another parent thread may hold _live_lock, and the child
        # inherits it locked with no owner.  The hook must complete even
        # then — it replaces the lock instead of acquiring it
        # (LEX-C003; this test deadlocks on regression).
        segment = shm_mod.SharedSegment(
            {"x": np.arange(4, dtype=np.int64)}
        )
        old_lock = shm_mod._live_lock
        old_lock.acquire()  # simulate the stuck inherited lock
        try:
            hook = threading.Thread(target=shm_mod._forget_all)
            hook.start()
            hook.join(timeout=5.0)
            assert not hook.is_alive(), (
                "_forget_all blocked on the inherited registry lock"
            )
        finally:
            old_lock.release()
        assert shm_mod._live_lock is not old_lock  # replaced wholesale
        assert shm_mod.live_segments() == ()  # registry emptied, usable
        segment.unlink()


# ------------------------------------------------------- SIGTERM drain

_SIGTERM_SCRIPT = """
import sys, time
from repro.core.sources import PhonemeStore
from repro.matching.costs import ClusteredCost
from repro.parallel import EncodedNameTable, ParallelMatchExecutor

store = PhonemeStore(ClusteredCost(0.25))
store.update({
    0: ("n", "e", "h", "r", "u"),
    1: ("n", "e", "r", "o"),
    2: ("n", "e", "r", "u"),
})
table = EncodedNameTable.from_store(store)
ex = ParallelMatchExecutor(table, workers=2)
ex.match(("n", "e", "h", "r", "u"), 0.3)
print(ex._segment.name, flush=True)
time.sleep(30)
"""


@pytest.mark.skipif(not HAVE_SHM_DIR, reason="no /dev/shm")
def test_sigterm_drain_unlinks_segment():
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    proc = subprocess.Popen(
        [sys.executable, "-c", _SIGTERM_SCRIPT],
        stdout=subprocess.PIPE,
        text=True,
        env=env,
    )
    try:
        name = proc.stdout.readline().strip()
        assert name.startswith(shm_mod.SEGMENT_PREFIX)
        assert name in shm_entries()
        proc.send_signal(signal.SIGTERM)
        proc.wait(timeout=10)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    # The chained handler unlinked the segment, then re-raised the
    # default action so the exit status still says "killed by SIGTERM".
    assert proc.returncode == -signal.SIGTERM
    until = time.monotonic() + 5.0
    while name in shm_entries() and time.monotonic() < until:
        time.sleep(0.05)
    assert name not in shm_entries()


_ORPHAN_SCRIPT = """
import sys, time
from repro.core.sources import PhonemeStore
from repro.matching.costs import ClusteredCost
from repro.parallel import EncodedNameTable, ParallelMatchExecutor

store = PhonemeStore(ClusteredCost(0.25))
store.update({
    0: ("n", "e", "h", "r", "u"),
    1: ("n", "e", "r", "o"),
    2: ("n", "e", "r", "u"),
})
table = EncodedNameTable.from_store(store)
ex = ParallelMatchExecutor(table, workers=2)
ex.match(("n", "e", "h", "r", "u"), 0.3)
print(" ".join(str(w.process.pid) for w in ex._workers), flush=True)
time.sleep(30)
"""


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover - exists, other owner
        return True
    return True


def test_workers_exit_after_parent_sigkill():
    # SIGKILL runs neither atexit nor daemon reaping, and pipe EOF
    # cannot fire (sibling workers hold fork-inherited copies of each
    # other's write ends) — the parent-liveness poll is what lets the
    # orphans exit instead of blocking in recv() forever.
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    proc = subprocess.Popen(
        [sys.executable, "-c", _ORPHAN_SCRIPT],
        stdout=subprocess.PIPE,
        text=True,
        env=env,
    )
    try:
        pids = [int(p) for p in proc.stdout.readline().split()]
        assert len(pids) == 2
        assert all(_pid_alive(p) for p in pids)
    finally:
        proc.kill()
        proc.wait()
    until = time.monotonic() + 10.0
    while any(_pid_alive(p) for p in pids) and time.monotonic() < until:
        time.sleep(0.1)
    assert not any(_pid_alive(p) for p in pids)


_SIGIGN_SCRIPT = """
import os, signal, sys, time
signal.signal(signal.SIGTERM, signal.SIG_IGN)
from repro.core.sources import PhonemeStore
from repro.matching.costs import ClusteredCost
from repro.parallel import EncodedNameTable, ParallelMatchExecutor

store = PhonemeStore(ClusteredCost(0.25))
store.update({
    0: ("n", "e", "h", "r", "u"),
    1: ("n", "e", "r", "o"),
    2: ("n", "e", "r", "u"),
})
table = EncodedNameTable.from_store(store)
ex = ParallelMatchExecutor(table, workers=2)
ex.match(("n", "e", "h", "r", "u"), 0.3)
print(ex._segment.name, flush=True)
for _ in range(200):  # survive SIGTERM, exit 0 once it was delivered
    time.sleep(0.05)
sys.exit(3)
"""


@pytest.mark.skipif(not HAVE_SHM_DIR, reason="no /dev/shm")
def test_sigterm_on_ignoring_process_cleans_up_but_does_not_kill():
    # A process that deliberately ignores SIGTERM must stay ignoring
    # it: the chained handler unlinks segments but does not convert
    # SIG_IGN into the default die-on-SIGTERM action.
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    proc = subprocess.Popen(
        [sys.executable, "-c", _SIGIGN_SCRIPT],
        stdout=subprocess.PIPE,
        text=True,
        env=env,
    )
    try:
        name = proc.stdout.readline().strip()
        assert name.startswith(shm_mod.SEGMENT_PREFIX)
        assert name in shm_entries()
        proc.send_signal(signal.SIGTERM)
        time.sleep(0.5)
        assert proc.poll() is None  # survived: SIG_IGN preserved
        until = time.monotonic() + 5.0
        while name in shm_entries() and time.monotonic() < until:
            time.sleep(0.05)
        assert name not in shm_entries()  # but cleanup still ran
    finally:
        proc.kill()
        proc.wait()
