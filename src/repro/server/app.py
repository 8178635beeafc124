"""The asyncio TCP server: connections, dispatch, graceful shutdown.

:class:`LexEqualServer` glues the transport-free pieces together: it
accepts connections, frames newline-delimited JSON requests
(:mod:`~repro.server.protocol`), keeps one
:class:`~repro.server.session.Session` per connection, runs cheap ops
(``ping``, ``prepare``, ``stats``) inline on the loop and offloads
CPU-bound ops (``query``, ``execute``, ``lexequal``) through the
:class:`~repro.server.workers.WorkerPool`.

Shutdown is graceful: :meth:`LexEqualServer.shutdown` stops accepting,
drains inflight requests (their responses are written), then closes the
remaining connections.  :func:`serve` wires that to SIGTERM/SIGINT for
the CLI, and :class:`BackgroundServer` runs the whole thing on a daemon
thread for tests and benchmarks.

Every layer feeds ``repro.obs``: connection open/close counters,
per-request latency histograms, per-op request counters, reject and
timeout counters — all visible through the ``stats`` op.
"""

from __future__ import annotations

import asyncio
import contextlib
import signal
import threading
import time

from repro import faults, obs
from repro.errors import (
    DeadlineExceededError,
    ProtocolError,
    ReproError,
    ServerError,
)
from repro.server import protocol
from repro.server.service import QueryService
from repro.server.session import Session
from repro.server.workers import (
    DEFAULT_WORKERS,
    PoolDrainingError,
    PoolOverloadedError,
    PoolTimeoutError,
    WorkerPool,
)

#: Wire error code for each pool failure.
_POOL_ERRORS = {
    PoolOverloadedError: protocol.E_OVERLOADED,
    PoolTimeoutError: protocol.E_TIMEOUT,
    PoolDrainingError: protocol.E_SHUTTING_DOWN,
}


class LexEqualServer:
    """A concurrent multiscript query service over one shared engine."""

    def __init__(
        self,
        service: QueryService | None = None,
        host: str = "127.0.0.1",
        port: int = protocol.DEFAULT_PORT,
        *,
        max_workers: int = DEFAULT_WORKERS,
        max_inflight: int = 32,
        request_timeout: float | None = 30.0,
        drain_timeout: float = 10.0,
        fault_injection: bool = False,
    ):
        self.service = service or QueryService()
        self.host = host
        self.port = port
        self.drain_timeout = drain_timeout
        #: Whether the remote ``faults`` op may reconfigure failpoints.
        #: Off by default — chaos tooling opts in explicitly
        #: (``lexequal serve --fault-injection`` / REPRO_FAULT_OPS=1).
        self.fault_injection = fault_injection
        self.pool = WorkerPool(
            max_workers=max_workers,
            max_inflight=max_inflight,
            request_timeout=request_timeout,
        )
        self._server: asyncio.AbstractServer | None = None
        self._connections: dict[asyncio.Task, asyncio.StreamWriter] = {}
        self._started = 0.0
        # Requests between decode and response-write.  Drain waits on
        # this (not just pool idleness): an answered worker future does
        # not mean the response bytes were written yet.
        self._active_requests = 0
        self._quiesced = asyncio.Event()
        self._quiesced.set()

    # ----------------------------------------------------------- lifecycle

    async def start(self) -> tuple[str, int]:
        """Bind and start accepting; returns the bound ``(host, port)``.

        Metrics are enabled process-wide: a server without its ``stats``
        op would be flying blind, and the registry's overhead is the
        cost the observability layer already budgeted for.
        """
        obs.enable()
        self._server = await asyncio.start_server(
            self._handle_connection,
            self.host,
            self.port,
            limit=protocol.MAX_LINE_BYTES,
        )
        self._started = time.monotonic()
        sockname = self._server.sockets[0].getsockname()
        self.host, self.port = sockname[0], sockname[1]
        return self.host, self.port

    async def shutdown(self) -> None:
        """Graceful drain: stop accepting, finish inflight, close.

        Ordering matters: the listening socket must be fully closed
        *before* the drain wait starts, so connection attempts during
        the drain are refused at the OS level instead of being accepted
        into a server that will never answer them.
        """
        if self._server is not None:
            self._server.close()
            # Let the loop process the listener close before draining;
            # without this tick an accept already scheduled could still
            # hand a doomed connection to _handle_connection.
            await asyncio.sleep(0)
        self.pool.begin_drain()
        try:
            await asyncio.wait_for(
                self._quiesced.wait(), self.drain_timeout
            )
        except asyncio.TimeoutError:
            obs.incr("server.drain.timeouts")
        for task, writer in list(self._connections.items()):
            writer.close()
            task.cancel()
        if self._connections:
            await asyncio.gather(
                *self._connections, return_exceptions=True
            )
        if self._server is not None:
            await self._server.wait_closed()
        self.pool.close()

    def info(self) -> dict:
        """Server gauges for the ``stats`` op."""
        return {
            "host": self.host,
            "port": self.port,
            "connections": len(self._connections),
            "active_requests": self._active_requests,
            "uptime_seconds": (
                time.monotonic() - self._started if self._started else 0.0
            ),
            "pool": self.pool.info(),
        }

    # --------------------------------------------------------- connections

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        assert task is not None
        self._connections[task] = writer
        peername = writer.get_extra_info("peername")
        session = Session(peer=str(peername))
        obs.incr("server.connections.opened")
        try:
            await self._serve_session(session, reader, writer)
        except (
            asyncio.CancelledError,
            ConnectionResetError,
            BrokenPipeError,
        ):
            pass  # client went away or server is closing: normal ends
        finally:
            obs.incr("server.connections.closed")
            self._connections.pop(task, None)
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()

    async def _serve_session(
        self,
        session: Session,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        while True:
            try:
                line = await reader.readline()
            except ValueError:
                # Line exceeded the stream limit: the framing is lost,
                # so answer once and drop the connection.
                writer.write(
                    protocol.error_response(
                        None,
                        protocol.E_TOO_LARGE,
                        f"request line exceeds "
                        f"{protocol.MAX_LINE_BYTES} bytes",
                    )
                )
                await writer.drain()
                return
            if not line:
                return  # EOF: client closed
            if not line.strip():
                continue
            if faults.fire("server.conn.drop_read"):
                # Injected transport fault: the request line is lost
                # before processing (a mid-request connection reset).
                obs.incr("server.conn.injected_drops")
                return
            session.requests += 1
            self._active_requests += 1
            self._quiesced.clear()
            try:
                started = time.perf_counter()
                response = await self._respond(session, line)
                obs.observe(
                    "server.request_seconds",
                    time.perf_counter() - started,
                )
                if faults.fire("server.conn.drop_write"):
                    # Injected transport fault: the work was done but
                    # the response bytes never reach the client.
                    obs.incr("server.conn.injected_drops")
                    return
                writer.write(response)
                await writer.drain()
            finally:
                self._active_requests -= 1
                if self._active_requests == 0:
                    self._quiesced.set()

    # ------------------------------------------------------------ dispatch

    async def _respond(self, session: Session, line: bytes) -> bytes:
        request_id = None
        try:
            request = protocol.decode_request(line)
            request_id = request.get("id")
            obs.incr("server.requests")
            obs.incr(f"server.requests.{request['op']}")
            result = await self._dispatch(session, request)
            return protocol.ok_response(request_id, result)
        except ProtocolError as exc:
            obs.incr("server.errors")
            request_id = getattr(exc, "request_id", request_id)
            return protocol.error_response(request_id, exc.code, str(exc))
        except DeadlineExceededError as exc:
            # The worker cancelled itself cooperatively; same wire code
            # as a protocol-level timeout, but the slot is already free.
            # (server.deadline.cancels is counted where the worker
            # future resolves, so it covers the common case where the
            # asyncio timeout wins the race for the response.)
            obs.incr("server.errors")
            return protocol.error_response(
                request_id, protocol.E_TIMEOUT, str(exc)
            )
        except ServerError as exc:
            # Pool admission/timeout failures carry their wire code.
            obs.incr("server.errors")
            code = _POOL_ERRORS.get(type(exc), protocol.E_INTERNAL)
            return protocol.error_response(request_id, code, str(exc))
        except ReproError as exc:
            # SQL/matching errors: the request failed, the session lives.
            obs.incr("server.errors")
            return protocol.error_response(
                request_id, protocol.E_SQL, str(exc)
            )
        except Exception as exc:  # noqa: BLE001 - last-resort boundary
            obs.incr("server.errors.internal")
            return protocol.error_response(
                request_id,
                protocol.E_INTERNAL,
                f"{type(exc).__name__}: {exc}",
            )

    async def _dispatch(self, session: Session, request: dict):
        op = request["op"]
        service = self.service
        if op == "ping":
            return "pong"
        if op == "health":
            # Inline on the loop: a health probe must answer even when
            # every worker slot is busy.
            return service.health(self.info())
        if op == "stats":
            return service.stats(self.info())
        if op == "faults":
            if not self.fault_injection:
                raise ProtocolError(
                    protocol.E_INVALID,
                    "fault injection is disabled on this server "
                    "(start with --fault-injection)",
                )
            return service.faults_op(request)
        if op == "prepare":
            sql = protocol.require_str(request, "sql")
            return service.prepare(session, sql, request.get("name"))
        timeout = request.get("timeout")
        if timeout is not None and not isinstance(timeout, (int, float)):
            raise ProtocolError(
                protocol.E_INVALID, "'timeout' must be a number"
            )
        if op == "query":
            sql = protocol.require_str(request, "sql")
            params = protocol.optional_params(request)
            return await self.pool.run(
                lambda: service.run_sql(sql, params), timeout=timeout
            )
        if op == "execute":
            name = protocol.require_str(request, "statement")
            # Resolve the name on the loop so unknown statements fail
            # fast (and never consume a worker slot).
            sql = session.prepared_sql(name)
            params = protocol.optional_params(request)
            return await self.pool.run(
                lambda: service.run_sql(sql, params), timeout=timeout
            )
        if op == "lexequal":
            left = protocol.require_str(request, "left")
            right = protocol.require_str(request, "right")
            threshold = request.get("threshold")
            languages = request.get("languages", "")
            if isinstance(languages, list):
                languages = ",".join(str(lang) for lang in languages)
            return await self.pool.run(
                lambda: service.lexequal(left, right, threshold, languages),
                timeout=timeout,
            )
        raise ProtocolError(  # pragma: no cover - decode_request guards
            protocol.E_UNKNOWN_OP, f"unknown op {op!r}"
        )


# ------------------------------------------------------------ entrypoints


async def serve_async(
    server: LexEqualServer, *, ready=None, stop: asyncio.Event | None = None
) -> None:
    """Run ``server`` until ``stop`` is set or SIGTERM/SIGINT arrives.

    ``ready(host, port)`` is called once the socket is bound (the CLI
    prints the address from it; tests capture the ephemeral port).
    """
    host, port = await server.start()
    if ready is not None:
        ready(host, port)
    stop = stop or asyncio.Event()
    loop = asyncio.get_running_loop()
    registered: list[signal.Signals] = []
    for sig in (signal.SIGTERM, signal.SIGINT):
        try:
            loop.add_signal_handler(sig, stop.set)
            registered.append(sig)
        except (NotImplementedError, RuntimeError, ValueError):
            pass  # non-main thread or platform without signal support
    try:
        await stop.wait()
    finally:
        for sig in registered:
            loop.remove_signal_handler(sig)
        await server.shutdown()


def serve(
    service: QueryService | None = None,
    host: str = "127.0.0.1",
    port: int = protocol.DEFAULT_PORT,
    *,
    ready=None,
    **options,
) -> None:
    """Blocking entrypoint: serve until SIGTERM/SIGINT, then drain."""
    server = LexEqualServer(service, host, port, **options)
    asyncio.run(serve_async(server, ready=ready))


class BackgroundServer:
    """A server on a daemon thread, for tests, benchmarks and scripts.

    Usage::

        with BackgroundServer() as bg:
            client = LexEqualClient(bg.host, bg.port)
            ...

    Exiting the context performs the same graceful drain as SIGTERM.
    """

    def __init__(self, service: QueryService | None = None, **options):
        options.setdefault("host", "127.0.0.1")
        options.setdefault("port", 0)
        host = options.pop("host")
        port = options.pop("port")
        self.server = LexEqualServer(service, host, port, **options)
        self.host: str | None = None
        self.port: int | None = None
        self._ready = threading.Event()
        self._stop: asyncio.Event | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread = threading.Thread(
            target=self._run, name="lexequal-server", daemon=True
        )

    def _run(self) -> None:
        async def main():
            self._loop = asyncio.get_running_loop()
            self._stop = asyncio.Event()

            def ready(host, port):
                self.host, self.port = host, port
                self._ready.set()

            try:
                await serve_async(
                    self.server, ready=ready, stop=self._stop
                )
            finally:
                self._ready.set()  # unblock start() on bind failure

        asyncio.run(main())

    def start(self) -> "BackgroundServer":
        self._thread.start()
        self._ready.wait(timeout=10.0)
        if self.port is None:
            raise ServerError("background server failed to start")
        return self

    def stop(self, timeout: float = 15.0) -> None:
        """Request graceful shutdown and wait for the thread to exit."""
        if self._loop is not None and self._stop is not None:
            with contextlib.suppress(RuntimeError):
                self._loop.call_soon_threadsafe(self._stop.set)
        self._thread.join(timeout=timeout)

    def __enter__(self) -> "BackgroundServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()
