"""A small blocking client for the LexEQUAL query service.

Speaks the newline-delimited JSON protocol over a plain socket; one
request at a time per client (the protocol itself allows pipelining,
but the blocking client keeps the simple request/response discipline).
This is what ``lexequal client`` and the throughput benchmark use, and
the reference implementation for clients in other languages::

    from repro.server.client import LexEqualClient

    with LexEqualClient(port=2004) as client:
        client.ping()
        result = client.query(
            "SELECT author, title FROM books "
            "WHERE author LEXEQUAL 'Nehru' THRESHOLD 0.25"
        )
        for row in result["rows"]:
            print(row)

Failure taxonomy:

* server-side failures surface as
  :class:`~repro.errors.RequestFailedError` (carrying the wire error
  code);
* *every* transport failure — refused connection, reset, EOF
  mid-response, socket timeout — is normalized to one
  :class:`~repro.errors.TransportError` carrying the op and request id;
* a tripped circuit breaker fails fast with
  :class:`~repro.errors.CircuitOpenError` without touching the network.

All derive from :class:`~repro.errors.ReproError`, so the CLI's
one-line ``error: ...`` convention covers them uniformly.

Resilience is opt-in and explicit::

    client = LexEqualClient(
        port=2004,
        retry=RetryPolicy(max_attempts=4),
        breaker=BreakerPolicy(failure_threshold=5),
    )

With a retry policy, transport faults on *idempotent* ops (``ping``,
``query``, ``lexequal``, ``stats``, ``faults``, ``health``) reconnect and retry
with exponential backoff + full jitter; ``prepare`` is never blindly
retried (re-running it could silently rebind a name), and ``execute``
is not transport-retried either — a reconnect starts a fresh session
without this session's prepared statements.  Structured ``overloaded``
rejects are retried for every op: admission rejection means the request
never ran, so re-submission is safe by construction.
"""

from __future__ import annotations

import itertools
import json
import random
import socket
import time
from typing import Any

from repro import obs
from repro.errors import (
    ProtocolError,
    RequestFailedError,
    TransportError,
)
from repro.server.protocol import DEFAULT_PORT, E_PARSE, MAX_LINE_BYTES
from repro.server.resilience import (
    BreakerBoard,
    BreakerPolicy,
    RetryPolicy,
)

#: Ops safe to retry over a *new* connection: stateless on the server
#: (no session-scoped effects), so a replay cannot corrupt anything.
RETRYABLE_OPS = frozenset(
    {"ping", "query", "lexequal", "stats", "faults", "health"}
)

#: Structured error codes that are safe to retry for any op: they are
#: raised at admission, before the request executed.
RETRYABLE_CODES = frozenset({"overloaded"})


class LexEqualClient:
    """Blocking connection to a :class:`~repro.server.app.LexEqualServer`."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = DEFAULT_PORT,
        *,
        timeout: float | None = 60.0,
        retry: RetryPolicy | None = None,
        breaker: BreakerPolicy | None = None,
        rng: random.Random | None = None,
        sleep=time.sleep,
    ):
        self.host = host
        self.port = port
        self.timeout = timeout
        self.retry = retry
        self._breakers = (
            BreakerBoard(breaker) if breaker is not None else None
        )
        self._rng = rng or random.Random()
        self._sleep = sleep
        self._ids = itertools.count(1)
        self._sock: socket.socket | None = None
        self._reader = None
        self._connect()

    # ------------------------------------------------------------ plumbing

    def _connect(self) -> None:
        try:
            self._sock = socket.create_connection(
                (self.host, self.port), timeout=self.timeout
            )
        except OSError as exc:
            self._sock = None
            raise TransportError(
                f"cannot connect to {self.host}:{self.port}: {exc}",
                op="connect",
            ) from None
        self._reader = self._sock.makefile("rb")

    def _teardown(self) -> None:
        reader, sock = self._reader, self._sock
        self._reader = self._sock = None
        try:
            if reader is not None:
                reader.close()
        finally:
            if sock is not None:
                sock.close()

    def request(self, op: str, **fields: Any) -> Any:
        """Send one request and return its ``result`` payload.

        Applies the client's retry policy and circuit breaker (see the
        module docstring for the idempotency rules).  Raises
        :class:`~repro.errors.RequestFailedError` on an error response,
        :class:`~repro.errors.TransportError` when the connection
        drops, and :class:`~repro.errors.CircuitOpenError` fast while
        the op's breaker is open.
        """
        breaker = (
            self._breakers.breaker(op) if self._breakers is not None else None
        )
        max_attempts = self.retry.max_attempts if self.retry else 1
        attempt = 1
        while True:
            if breaker is not None:
                breaker.allow()  # may raise CircuitOpenError
            try:
                if self._sock is None:
                    # Previous attempt (or a prior request) broke the
                    # connection; transparently re-establish it.
                    obs.incr("client.reconnects")
                    self._connect()
                result = self._request_once(op, fields)
            except TransportError:
                if breaker is not None:
                    breaker.record_failure()
                obs.incr("client.transport_errors")
                self._teardown()
                if op not in RETRYABLE_OPS or attempt >= max_attempts:
                    raise
                self._backoff(attempt, op)
                attempt += 1
            except RequestFailedError as exc:
                # The server answered: the transport is healthy.
                if breaker is not None:
                    breaker.record_success()
                if exc.code not in RETRYABLE_CODES or attempt >= max_attempts:
                    raise
                self._backoff(attempt, op)
                attempt += 1
            else:
                if breaker is not None:
                    breaker.record_success()
                return result

    def _backoff(self, retry_number: int, op: str) -> None:
        obs.incr("client.retries")
        obs.incr(f"client.retries.{op}")
        delay = self.retry.backoff(retry_number, self._rng)
        if delay > 0:
            self._sleep(delay)

    def _request_once(self, op: str, fields: dict) -> Any:
        request_id = next(self._ids)
        payload = {"op": op, "id": request_id}
        payload.update(
            (k, v) for k, v in fields.items() if v is not None
        )
        line = (json.dumps(payload, ensure_ascii=False) + "\n").encode(
            "utf-8"
        )
        try:
            self._sock.sendall(line)
            raw = self._reader.readline(MAX_LINE_BYTES + 1)
        except OSError as exc:
            raise TransportError(
                f"connection to {self.host}:{self.port} failed: {exc}",
                op=op,
                request_id=request_id,
            ) from None
        if not raw:
            raise TransportError(
                f"server {self.host}:{self.port} closed the connection",
                op=op,
                request_id=request_id,
            )
        try:
            response = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ProtocolError(
                E_PARSE, f"unparseable response from server: {exc}"
            ) from None
        if not isinstance(response, dict) or "ok" not in response:
            raise ProtocolError(E_PARSE, f"malformed response: {response!r}")
        if response.get("id") != request_id:
            raise ProtocolError(
                E_PARSE,
                f"response id {response.get('id')!r} does not match "
                f"request id {request_id!r}",
            )
        if not response["ok"]:
            error = response.get("error") or {}
            raise RequestFailedError(
                str(error.get("code", "unknown")),
                str(error.get("message", "no message")),
            )
        return response.get("result")

    def resilience_info(self) -> dict:
        """Circuit-breaker states of this client (diagnostics)."""
        return self._breakers.info() if self._breakers is not None else {}

    def close(self) -> None:
        self._teardown()

    def __enter__(self) -> "LexEqualClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ---------------------------------------------------------------- ops

    def ping(self) -> str:
        return self.request("ping")

    def query(
        self,
        sql: str,
        params: dict | None = None,
        *,
        timeout: float | None = None,
    ) -> dict:
        return self.request("query", sql=sql, params=params, timeout=timeout)

    def prepare(self, sql: str, name: str | None = None) -> str:
        return self.request("prepare", sql=sql, name=name)["statement"]

    def execute(
        self,
        statement: str,
        params: dict | None = None,
        *,
        timeout: float | None = None,
    ) -> dict:
        return self.request(
            "execute", statement=statement, params=params, timeout=timeout
        )

    def lexequal(
        self,
        left: str,
        right: str,
        threshold: float | None = None,
        languages: str = "",
    ) -> dict:
        return self.request(
            "lexequal",
            left=left,
            right=right,
            threshold=threshold,
            languages=languages or None,
        )

    def stats(self) -> dict:
        return self.request("stats")

    def health(self) -> dict:
        """The ``health`` liveness/readiness probe."""
        return self.request("health")

    def faults(self, action: str = "list", **fields: Any) -> dict:
        """Drive the server's fault-injection registry (chaos tooling)."""
        return self.request("faults", action=action, **fields)
