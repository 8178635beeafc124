"""A bounded worker pool bridging the event loop and the engine.

Running a query on the asyncio loop would stall every connection behind
the slowest one, so :class:`WorkerPool` offloads ``query``/``execute``/
``lexequal`` to a thread pool of :data:`DEFAULT_WORKERS` engine threads
(``lexequal serve --workers`` adds more).  One is the default because
the engine's hot layers hold the GIL: q-gram candidate generation and
the batch verifier are runs of short numpy calls, and two runnable
threads convoy on the GIL at every call boundary.  In-process on a
600-row table at ``MatchConfig()`` on 2 CPUs, ``QueryService.run_sql``
served 823-1,136 selects/s on one thread and 546-692/s on two
(0.49-0.79x over nine rounds).  A second thread pays only where one
numpy call runs long: at 200k rows two threads served 1.12-1.17x the
selects of one, at 50k rows 0.94-1.11x.  The pool wraps three
service-level policies around the hop, whatever its size:

* **backpressure** — at most ``max_inflight`` requests may be admitted
  (queued or running); beyond that, :meth:`run` fails *immediately*
  with :class:`PoolOverloadedError`, which the server maps to a
  structured ``overloaded`` error response.  Overload degrades into
  fast rejects, never into an unbounded queue or a hang;
* **per-request timeouts** — a request that exceeds its deadline fails
  with :class:`PoolTimeoutError` (wire code ``timeout``).  The thread
  itself cannot be interrupted mid-DP, so the slot stays occupied until
  the function returns — the accounting deliberately reflects the real
  load, which is what backpressure must see;
* **draining** — after :meth:`begin_drain`, new admissions fail with
  :class:`PoolDrainingError` while already-admitted requests run to
  completion; :meth:`wait_idle` resolves when the last one finishes
  (SIGTERM's graceful-shutdown path).

Inflight accounting mutates only on the event loop thread (admission in
:meth:`run`, release via a done-callback scheduled on the loop), so it
needs no lock.  Queue wait and execution time feed the
``server.queue_wait_seconds`` / ``server.worker_seconds`` histograms.
"""

from __future__ import annotations

import asyncio
import time
from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor
from typing import Any

from repro import deadline, faults, obs
from repro.errors import DeadlineExceededError, ServerError


#: Engine threads per server unless ``--workers``/``max_workers`` says
#: otherwise (see the module docstring for why one).
DEFAULT_WORKERS = 1


class PoolOverloadedError(ServerError):
    """Admission failed: the max-inflight backpressure limit was hit."""


class PoolTimeoutError(ServerError):
    """The per-request deadline expired before the worker finished."""


class PoolDrainingError(ServerError):
    """Admission failed: the pool is draining for shutdown."""


class WorkerPool:
    """Bounded ThreadPoolExecutor with inflight accounting (see module)."""

    def __init__(
        self,
        max_workers: int = DEFAULT_WORKERS,
        max_inflight: int = 32,
        request_timeout: float | None = 30.0,
    ):
        if max_workers < 1:
            raise ValueError("max_workers must be >= 1")
        if max_inflight < 1:
            raise ValueError("max_inflight must be >= 1")
        self.max_workers = max_workers
        self.max_inflight = max_inflight
        self.request_timeout = request_timeout
        self._executor = ThreadPoolExecutor(
            max_workers=max_workers, thread_name_prefix="lexequal-worker"
        )
        self._inflight = 0
        self._draining = False
        self._idle = asyncio.Event()
        self._idle.set()

    @property
    def inflight(self) -> int:
        """Requests admitted and not yet finished (queued or running)."""
        return self._inflight

    @property
    def draining(self) -> bool:
        return self._draining

    async def run(
        self,
        fn: Callable[[], Any],
        *,
        timeout: float | None = None,
    ) -> Any:
        """Run ``fn()`` on a worker thread, enforcing the pool policies.

        ``timeout=None`` uses the pool default; pass ``0`` (or negative)
        to disable the deadline for this request.
        """
        if self._draining:
            obs.incr("server.rejects.draining")
            raise PoolDrainingError("server is shutting down")
        if faults.fire("pool.admit"):
            # Injected admission failure: surfaces as the same
            # structured overload reject a saturated pool produces.
            obs.incr("server.rejects.overloaded")
            raise PoolOverloadedError(
                "server overloaded (injected admission fault); retry later"
            )
        if self._inflight >= self.max_inflight:
            obs.incr("server.rejects.overloaded")
            raise PoolOverloadedError(
                f"server overloaded ({self._inflight} requests in flight, "
                f"limit {self.max_inflight}); retry later"
            )
        if timeout is None:
            timeout = self.request_timeout
        if timeout is not None and timeout <= 0:
            timeout = None

        loop = asyncio.get_running_loop()
        self._inflight += 1
        self._idle.clear()
        admitted = time.perf_counter()

        # The cooperative deadline mirrors the protocol timeout and is
        # anchored at admission (queue wait spends budget too): when the
        # response is already doomed to a `timeout` error, the worker
        # thread aborts its DP matching (repro.deadline) instead of
        # burning the slot to completion.
        deadline_at = (
            time.monotonic() + timeout if timeout is not None else None
        )

        def timed_fn():
            started = time.perf_counter()
            obs.observe("server.queue_wait_seconds", started - admitted)
            remaining = (
                deadline_at - time.monotonic()
                if deadline_at is not None
                else None
            )
            try:
                with deadline.deadline_scope(remaining):
                    faults.fire("pool.execute")  # latency/error injection
                    return fn()
            finally:
                obs.observe(
                    "server.worker_seconds", time.perf_counter() - started
                )

        future = loop.run_in_executor(self._executor, timed_fn)
        future.add_done_callback(self._release)
        try:
            # shield(): a timeout must not cancel the executor future —
            # the thread keeps running regardless, and the done-callback
            # is what releases the inflight slot.
            return await asyncio.wait_for(asyncio.shield(future), timeout)
        except asyncio.TimeoutError:
            obs.incr("server.timeouts")
            raise PoolTimeoutError(
                f"request exceeded the {timeout:g}s timeout"
            ) from None

    def _release(self, future: asyncio.Future) -> None:
        # Runs on the event loop.  Retrieve the exception of abandoned
        # (timed-out) futures so asyncio does not log it as unhandled.
        if not future.cancelled():
            exc = future.exception()
            if isinstance(exc, DeadlineExceededError):
                # The worker aborted its DP cooperatively: the slot is
                # back this much earlier than run-to-completion.
                obs.incr("server.deadline.cancels")
        self._inflight -= 1
        if self._inflight == 0:
            self._idle.set()

    # --------------------------------------------------------- shutdown

    def begin_drain(self) -> None:
        """Stop admitting; inflight requests keep running."""
        self._draining = True

    async def wait_idle(self, timeout: float | None = None) -> bool:
        """Wait until no request is inflight; False if ``timeout`` hit."""
        try:
            await asyncio.wait_for(self._idle.wait(), timeout)
            return True
        except asyncio.TimeoutError:
            return False

    def close(self) -> None:
        """Release the worker threads (does not wait for stragglers)."""
        self._executor.shutdown(wait=False, cancel_futures=True)

    def info(self) -> dict:
        """Pool state for the ``stats`` op."""
        return {
            "workers": self.max_workers,
            "inflight": self._inflight,
            "max_inflight": self.max_inflight,
            "request_timeout": self.request_timeout,
            "draining": self._draining,
        }
