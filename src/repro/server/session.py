"""Per-connection session state.

Each TCP connection gets one :class:`Session`: a server-unique id (shown
in logs and ``stats``), a monotone request counter, and the connection's
prepared statements.  Prepared statements are *session-scoped names*
bound to SQL text — the parsed ASTs themselves live in the shared
:class:`~repro.server.cache.StatementCache`, so two sessions preparing
the same SQL share one parse.

Sessions are only touched from the event loop (handlers run request
dispatch on the loop and offload pure execution to workers), so they
need no locking of their own.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from repro.errors import ProtocolError
from repro.server.protocol import E_INVALID, E_UNKNOWN_STATEMENT

_session_ids = itertools.count(1)


@dataclass
class Session:
    """State of one client connection."""

    session_id: int = field(default_factory=lambda: next(_session_ids))
    peer: str = ""
    requests: int = 0
    _prepared: dict[str, str] = field(default_factory=dict)
    _names: itertools.count = field(
        default_factory=lambda: itertools.count(1)
    )

    def prepare(self, sql: str, name: str | None = None) -> str:
        """Bind ``sql`` under ``name`` (or a generated ``s<n>`` name).

        Re-preparing an existing name rebinds it, like SQL PREPARE in
        most engines.
        """
        if name is None:
            name = f"s{next(self._names)}"
        elif not isinstance(name, str) or not name:
            raise ProtocolError(E_INVALID, "'name' must be a string")
        self._prepared[name] = sql
        return name

    def prepared_sql(self, name: str) -> str:
        """The SQL text bound to ``name``; raises ``unknown_statement``."""
        try:
            return self._prepared[name]
        except KeyError:
            raise ProtocolError(
                E_UNKNOWN_STATEMENT,
                f"no prepared statement {name!r} in this session",
            ) from None
