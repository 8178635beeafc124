"""The query service: op execution against one shared engine.

A :class:`QueryService` owns the pieces every connection shares — the
:class:`~repro.minidb.catalog.Database`, the
:class:`~repro.core.matcher.LexEqualMatcher`, and the statement cache —
and exposes one synchronous method per protocol op.  Methods are called
from worker threads (CPU-bound ops) or the event loop (cheap ops); all
shared state they touch is thread-safe: the catalog takes its DDL/DML
lock, the TTP registry's conversion cache is lock-on-miss, and the
statement cache is a locking LRU.

The service is deliberately transport-free — tests drive it directly,
and :mod:`repro.server.app` is just asyncio plumbing around it.
"""

from __future__ import annotations

from repro import degrade, faults, obs
from repro.core.matcher import LexEqualMatcher
from repro.errors import ProtocolError, TTPError
from repro.minidb.catalog import Database
from repro.minidb.planner import ResultSet, execute_statement
from repro.server.cache import StatementCache
from repro.server.protocol import E_INVALID, jsonable_rows
from repro.server.session import Session


class QueryService:
    """Executes protocol ops against one shared database + matcher."""

    def __init__(
        self,
        db: Database | None = None,
        matcher: LexEqualMatcher | None = None,
        *,
        statement_cache_size: int = 128,
        strategy: str | None = None,
    ):
        if db is None:
            from repro.core.integration import demo_books_db

            matcher = matcher or LexEqualMatcher()
            db = demo_books_db("qgram", matcher)
            strategy = strategy or "qgram"
        self.db = db
        self.matcher = matcher or LexEqualMatcher()
        #: The accelerator strategy this service was built with (shown
        #: by the ``health`` op; ``None`` = caller didn't say).
        self.strategy = strategy
        self.statements = StatementCache(statement_cache_size)

    # ----------------------------------------------------------- SQL ops

    def run_sql(self, sql: str, params: dict) -> dict:
        """Execute ``sql`` (any statement kind) and return its payload.

        SELECT/EXPLAIN produce ``{"columns", "rows", "row_count"}``; DDL
        and INSERT produce ``{"row_count"}``.

        Runs under a degradation context: a per-language TTP failure
        mid-query drops that language's rows from the match instead of
        failing the whole request, and the payload gains
        ``degraded: true`` plus the ``failed_languages`` list.
        """
        stmt = self.statements.statement(sql)
        with degrade.collecting() as failed_languages:
            with obs.timed("server.execute"):
                result = execute_statement(self.db, stmt, params)
        if isinstance(result, ResultSet):
            payload = {
                "columns": list(result.columns),
                "rows": jsonable_rows(result.rows),
                "row_count": len(result.rows),
            }
        else:
            payload = {"row_count": int(result)}
        return self._mark_degraded(payload, failed_languages)

    @staticmethod
    def _mark_degraded(payload: dict, failed_languages: set) -> dict:
        if failed_languages:
            payload["degraded"] = True
            payload["failed_languages"] = sorted(failed_languages)
            obs.incr("server.degraded_responses")
        return payload

    def prepare(self, session: Session, sql: str, name=None) -> dict:
        """Parse ``sql`` now (failing fast) and bind it in the session."""
        self.statements.statement(sql)  # validate + warm the cache
        bound = session.prepare(sql, name)
        return {"statement": bound}

    def execute_prepared(
        self, session: Session, name: str, params: dict
    ) -> dict:
        return self.run_sql(session.prepared_sql(name), params)

    # ------------------------------------------------------ matching op

    def lexequal(
        self,
        left: str,
        right: str,
        threshold: float | None = None,
        languages: str = "",
    ) -> dict:
        """The convenience op: one LexEQUAL comparison, fully explained.

        Language-restricted comparisons (``languages`` is the comma
        separated INLANGUAGES set) short-circuit to no-match when either
        operand's language falls outside the set, as the SQL operator
        does.
        """
        matcher = self.matcher
        if threshold is not None:
            try:
                threshold = float(threshold)
            except (TypeError, ValueError):
                raise ProtocolError(
                    E_INVALID, "'threshold' must be a number"
                ) from None
            matcher = LexEqualMatcher(
                matcher.config.with_threshold(threshold), matcher.registry
            )
        with degrade.collecting() as failed_languages:
            try:
                explanation = matcher.explain(left, right)
            except TTPError as exc:
                # A transient per-language TTP failure: degrade this
                # comparison to NORESOURCE (unknown) instead of erroring
                # the request — the language is down, not the server.
                degrade.record(getattr(exc, "language", None))
                return self._mark_degraded(
                    {
                        "outcome": "noresource",
                        "match": None,
                        "left_language": matcher.language_of(left),
                        "right_language": matcher.language_of(right),
                        "left_ipa": "",
                        "right_ipa": "",
                        "distance": None,
                        "budget": 0.0,
                    },
                    failed_languages,
                )
        outcome = explanation.outcome.value
        if languages:
            wanted = {
                lang.strip().lower()
                for lang in str(languages).split(",")
                if lang.strip()
            }
            if wanted and outcome == "true":
                if (
                    explanation.left_language not in wanted
                    or explanation.right_language not in wanted
                ):
                    outcome = "false"
        return {
            "outcome": outcome,
            "match": {"true": True, "false": False}.get(outcome),
            "left_language": explanation.left_language,
            "right_language": explanation.right_language,
            "left_ipa": explanation.left_ipa,
            "right_ipa": explanation.right_ipa,
            "distance": explanation.distance,
            "budget": explanation.budget,
        }

    # ------------------------------------------------------ health op

    def health(self, server_info: dict | None = None) -> dict:
        """The ``health`` payload: liveness + readiness in one probe.

        Cheap by construction (no SQL, no matching, no locks beyond the
        storage attribute read) so a load balancer can poll it
        aggressively.  ``wal_lsn`` is the WAL high-water mark on
        persistent backends and ``None`` on in-memory ones.
        """
        info = server_info or {}
        storage = getattr(self.db, "storage", None)
        return {
            "status": "ok",
            "role": "server",
            "uptime_seconds": info.get("uptime_seconds", 0.0),
            "in_flight": info.get("active_requests", 0),
            "strategy": self.strategy or "default",
            "wal_lsn": getattr(storage, "wal_high_water_lsn", None),
        }

    # ------------------------------------------------------- fault ops

    @staticmethod
    def faults_op(request: dict) -> dict:
        """The ``faults`` op: drive the failpoint registry remotely.

        Actions: ``configure`` (fields ``name`` + any of ``probability``,
        ``latency``, ``error``, ``count``, ``languages``), ``disable``
        (``name``), ``reset``, ``seed`` (``seed``), ``list``.  Every
        action answers with the current registry description so chaos
        drivers can assert their schedule took effect.  The server gates
        this op behind its ``--fault-injection`` flag.
        """
        action = request.get("action", "list")
        if action == "configure":
            name = request.get("name")
            if not isinstance(name, str) or not name:
                raise ProtocolError(
                    E_INVALID, "faults configure needs a string 'name'"
                )
            kwargs: dict = {}
            for field in ("probability", "latency"):
                value = request.get(field)
                if value is not None:
                    if not isinstance(value, (int, float)):
                        raise ProtocolError(
                            E_INVALID, f"'{field}' must be a number"
                        )
                    kwargs[field] = float(value)
            error = request.get("error")
            if error is not None:
                if not isinstance(error, str):
                    raise ProtocolError(E_INVALID, "'error' must be a string")
                kwargs["error"] = error
            count = request.get("count")
            if count is not None:
                if not isinstance(count, int) or isinstance(count, bool):
                    raise ProtocolError(
                        E_INVALID, "'count' must be an integer"
                    )
                kwargs["count"] = count
            languages = request.get("languages")
            if languages is not None:
                if not isinstance(languages, list) or not all(
                    isinstance(lang, str) for lang in languages
                ):
                    raise ProtocolError(
                        E_INVALID, "'languages' must be a list of strings"
                    )
                kwargs["languages"] = tuple(languages)
            try:
                faults.configure(name, **kwargs)
            except ValueError as exc:
                raise ProtocolError(E_INVALID, str(exc)) from None
        elif action == "disable":
            name = request.get("name")
            if not isinstance(name, str) or not name:
                raise ProtocolError(
                    E_INVALID, "faults disable needs a string 'name'"
                )
            faults.disable(name)
        elif action == "reset":
            faults.reset()
        elif action == "seed":
            seed = request.get("seed")
            if not isinstance(seed, int) or isinstance(seed, bool):
                raise ProtocolError(E_INVALID, "'seed' must be an integer")
            faults.seed(seed)
        elif action != "list":
            raise ProtocolError(
                E_INVALID,
                f"unknown faults action {action!r} (supported: "
                "configure, disable, reset, seed, list)",
            )
        return {"failpoints": faults.describe()}

    # ------------------------------------------------------------- stats

    def stats(self, server_info: dict | None = None) -> dict:
        """The ``stats`` payload: server gauges + metrics snapshot."""
        return {
            "server": server_info or {},
            "statement_cache": self.statements.info(),
            "tables": {
                name: len(self.db.table(name))
                for name in self.db.table_names()
            },
            "faults": faults.describe(),
            "metrics": obs.snapshot(),
        }
