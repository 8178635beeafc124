"""The wire protocol: newline-delimited JSON requests and responses.

One TCP connection carries a sequence of *requests*, each a single JSON
object on its own ``\\n``-terminated UTF-8 line, answered in order by
exactly one *response* line.  The shape mirrors what pragmatic network
databases (Redis' RESP, CouchDB's _changes, ES' bulk API) converged on:
human-debuggable framing (``nc`` is a usable client) with structured
payloads.

Request::

    {"op": "query", "id": 7, "sql": "SELECT ...", "params": {...}}

``op`` is required; ``id`` is optional and echoed verbatim in the
response so clients may pipeline.  Responses are either::

    {"id": 7, "ok": true, "result": {...}}
    {"id": 7, "ok": false, "error": {"code": "sql_error", "message": "..."}}

Ops, fields and error codes are specified in DESIGN.md §7; this module
owns encoding/decoding and request validation, and knows nothing about
execution.
"""

from __future__ import annotations

import json
from typing import Any

from repro.errors import ProtocolError
from repro.minidb.values import LangText

#: Default TCP port (the paper is EDBT 2004).
DEFAULT_PORT = 2004

#: Hard cap on one request/response line, in bytes.  Protects the server
#: from unbounded buffering on hostile or broken clients.
MAX_LINE_BYTES = 1 << 20

# ---------------------------------------------------------- error codes

#: Request line was not valid JSON.
E_PARSE = "parse_error"
#: Request was valid JSON but not a valid request object.
E_INVALID = "invalid_request"
#: ``op`` is not one of the supported operations.
E_UNKNOWN_OP = "unknown_op"
#: Request line exceeded :data:`MAX_LINE_BYTES`.
E_TOO_LARGE = "too_large"
#: SQL could not be parsed, planned or executed.
E_SQL = "sql_error"
#: ``execute`` named a statement this session never prepared.
E_UNKNOWN_STATEMENT = "unknown_statement"
#: The per-request timeout expired before a worker finished.
E_TIMEOUT = "timeout"
#: The max-inflight backpressure limit rejected the request.
E_OVERLOADED = "overloaded"
#: The server is draining (SIGTERM received); no new work accepted.
E_SHUTTING_DOWN = "shutting_down"
#: Unexpected server-side failure (a bug; details in the message).
E_INTERNAL = "internal"

#: Supported operations (each documented in DESIGN.md §7).  ``faults``
#: drives the fault-injection registry and is rejected unless the
#: server was started with fault injection enabled.  ``health`` is the
#: liveness/readiness probe behind ``repro.cli client health``.
OPS = (
    "ping",
    "query",
    "prepare",
    "execute",
    "lexequal",
    "stats",
    "faults",
    "health",
)

#: Degradation fields a partial response may carry (DESIGN.md §7).
#: A payload with a ``failed_languages`` list MUST also set
#: ``degraded``; the LEX-A001 drift rule pins these literals across
#: protocol, service and docs so the names cannot fork.
F_DEGRADED = "degraded"
F_FAILED_LANGUAGES = "failed_languages"
DEGRADED_FIELDS = (F_DEGRADED, F_FAILED_LANGUAGES)


def decode_request(line: bytes | str) -> dict:
    """Parse and validate one request line into a request dict.

    Raises :class:`~repro.errors.ProtocolError` carrying the wire error
    code (``parse_error`` / ``invalid_request`` / ``unknown_op``).
    """
    if isinstance(line, bytes):
        try:
            line = line.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ProtocolError(E_PARSE, f"request is not UTF-8: {exc}")
    try:
        request = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ProtocolError(E_PARSE, f"request is not valid JSON: {exc}")
    if not isinstance(request, dict):
        raise ProtocolError(
            E_INVALID, "request must be a JSON object with an 'op' field"
        )
    # Validate the id first so later failures can still echo it back.
    request_id = request.get("id")
    if request_id is not None and not isinstance(
        request_id, (str, int, float)
    ):
        raise ProtocolError(E_INVALID, "'id' must be a string or number")

    def fail(code: str, message: str):
        error = ProtocolError(code, message)
        error.request_id = request_id
        raise error

    op = request.get("op")
    if not isinstance(op, str):
        fail(E_INVALID, "missing or non-string 'op' field")
    if op not in OPS:
        fail(
            E_UNKNOWN_OP,
            f"unknown op {op!r} (supported: {', '.join(OPS)})",
        )
    return request


def require_str(request: dict, field: str) -> str:
    """A required string field of a validated request."""
    value = request.get(field)
    if not isinstance(value, str) or not value:
        raise ProtocolError(
            E_INVALID, f"op {request['op']!r} needs a string {field!r} field"
        )
    return value


def optional_params(request: dict) -> dict:
    """The optional ``params`` field (SQL ``:name`` bindings)."""
    params = request.get("params")
    if params is None:
        return {}
    if not isinstance(params, dict):
        raise ProtocolError(E_INVALID, "'params' must be a JSON object")
    return params


def ok_response(request_id: Any, result: Any) -> bytes:
    """Encode a success response line (trailing newline included)."""
    return _encode({"id": request_id, "ok": True, "result": result})


def error_response(request_id: Any, code: str, message: str) -> bytes:
    """Encode an error response line (trailing newline included)."""
    return _encode(
        {
            "id": request_id,
            "ok": False,
            "error": {"code": code, "message": message},
        }
    )


def _encode(payload: dict) -> bytes:
    return (
        json.dumps(payload, ensure_ascii=False, default=jsonable) + "\n"
    ).encode("utf-8")


def jsonable(value: Any) -> Any:
    """JSON representation of a minidb value.

    :class:`~repro.minidb.values.LangText` becomes a tagged object so
    clients keep the language; anything else non-JSON falls back to
    ``str`` (loud types are better added here explicitly).
    """
    if isinstance(value, LangText):
        return {"text": value.text, "language": value.language}
    return str(value)


def jsonable_rows(rows: list[tuple]) -> list[list]:
    """Result rows as JSON-ready lists (see :func:`jsonable`)."""
    scalar = (type(None), bool, int, float, str)
    return [
        [v if isinstance(v, scalar) else jsonable(v) for v in row]
        for row in rows
    ]
