"""Protocol-level tests for the query server: round trips and errors."""

import json
import socket

import pytest

from repro import obs
from repro.errors import ProtocolError, RequestFailedError
from repro.server import (
    BackgroundServer,
    LexEqualClient,
    StatementCache,
    protocol,
)


@pytest.fixture(scope="module")
def server():
    with BackgroundServer() as bg:
        yield bg
    obs.disable()  # the server enables the global registry


@pytest.fixture()
def client(server):
    with LexEqualClient(server.host, server.port, timeout=30.0) as c:
        yield c


def raw_exchange(server, payload: bytes) -> dict:
    """Send raw bytes on a fresh socket; decode the one-line response."""
    with socket.create_connection(
        (server.host, server.port), timeout=30.0
    ) as sock:
        sock.sendall(payload)
        reader = sock.makefile("rb")
        line = reader.readline()
    return json.loads(line.decode("utf-8"))


class TestRoundTrips:
    def test_ping(self, client):
        assert client.ping() == "pong"

    def test_query_select(self, client):
        result = client.query(
            "SELECT author, title FROM books "
            "WHERE author LEXEQUAL 'Nehru' THRESHOLD 0.25"
        )
        assert result["columns"] == ["author", "title"]
        assert result["row_count"] == 3
        texts = {row[0]["text"] for row in result["rows"]}
        assert texts == {"Nehru", "नेहरु", "நேரு"}

    def test_query_with_params(self, client):
        result = client.query(
            "SELECT title FROM books WHERE price < :p", {"p": 20.0}
        )
        assert result["row_count"] == 2

    def test_prepare_execute(self, client):
        name = client.prepare(
            "SELECT title FROM books WHERE price < :p"
        )
        cheap = client.execute(name, {"p": 20.0})
        pricier = client.execute(name, {"p": 100.0})
        assert cheap["row_count"] == 2
        assert pricier["row_count"] == 4

    def test_prepare_explicit_name(self, client):
        name = client.prepare("SELECT title FROM books", name="all_titles")
        assert name == "all_titles"
        assert client.execute("all_titles")["row_count"] == 6

    def test_lexequal_op(self, client):
        result = client.lexequal("Nehru", "नेहरु")
        assert result["outcome"] == "true"
        assert result["match"] is True
        assert result["left_ipa"]
        miss = client.lexequal("Nehru", "Smith")
        assert miss["outcome"] == "false"
        assert miss["match"] is False

    def test_lexequal_language_restriction(self, client):
        restricted = client.lexequal(
            "Nehru", "नेहरु", languages="english,greek"
        )
        assert restricted["outcome"] == "false"

    def test_lexequal_threshold_override(self, client):
        loose = client.lexequal("Nehru", "Nero", threshold=0.9)
        strict = client.lexequal("Nehru", "Nero", threshold=0.05)
        assert loose["outcome"] == "true"
        assert strict["outcome"] == "false"

    def test_stats_op(self, client):
        client.ping()
        stats = client.stats()
        assert stats["server"]["connections"] >= 1
        assert stats["server"]["pool"]["max_inflight"] >= 1
        assert stats["tables"]["books"] == 6
        assert stats["metrics"]["enabled"] is True
        assert stats["metrics"]["counters"]["server.requests.ping"] >= 1
        assert "statement_cache" in stats

    def test_session_isolation_of_prepared_statements(self, server, client):
        client.prepare("SELECT title FROM books", name="mine")
        with LexEqualClient(server.host, server.port) as other:
            with pytest.raises(RequestFailedError) as err:
                other.execute("mine")
            assert err.value.code == "unknown_statement"


class TestErrorResponses:
    def test_malformed_json(self, server):
        response = raw_exchange(server, b"{not json}\n")
        assert response["ok"] is False
        assert response["error"]["code"] == "parse_error"

    def test_non_object_request(self, server):
        response = raw_exchange(server, b"[1, 2, 3]\n")
        assert response["ok"] is False
        assert response["error"]["code"] == "invalid_request"

    def test_unknown_op(self, server):
        response = raw_exchange(
            server, b'{"op": "frobnicate", "id": 9}\n'
        )
        assert response["ok"] is False
        assert response["error"]["code"] == "unknown_op"
        assert response["id"] == 9

    def test_missing_field(self, server):
        response = raw_exchange(server, b'{"op": "query"}\n')
        assert response["error"]["code"] == "invalid_request"

    def test_sql_error_keeps_session_alive(self, client):
        with pytest.raises(RequestFailedError) as err:
            client.query("SELECT FROM WHERE")
        assert err.value.code == "sql_error"
        assert client.ping() == "pong"  # connection survived

    def test_unknown_table_is_sql_error(self, client):
        with pytest.raises(RequestFailedError) as err:
            client.query("SELECT x FROM nope")
        assert err.value.code == "sql_error"

    def test_blank_lines_are_skipped(self, server):
        response = raw_exchange(server, b'\n\n{"op": "ping", "id": 1}\n')
        assert response["ok"] is True
        assert response["result"] == "pong"

    def test_id_echoed_on_success(self, server):
        response = raw_exchange(server, b'{"op": "ping", "id": "abc"}\n')
        assert response["id"] == "abc"


class TestDecodeRequest:
    def test_rejects_bad_id_type(self):
        with pytest.raises(ProtocolError) as err:
            protocol.decode_request('{"op": "ping", "id": [1]}')
        assert err.value.code == "invalid_request"

    def test_rejects_missing_op(self):
        with pytest.raises(ProtocolError) as err:
            protocol.decode_request('{"sql": "SELECT 1"}')
        assert err.value.code == "invalid_request"

    def test_accepts_all_ops(self):
        for op in protocol.OPS:
            assert protocol.decode_request(
                json.dumps({"op": op})
            )["op"] == op


class TestStatementCache:
    def test_hit_returns_same_ast(self):
        cache = StatementCache(maxsize=4)
        first = cache.statement("SELECT title FROM books")
        second = cache.statement("SELECT title FROM books")
        assert first is second
        info = cache.info()
        assert info["hits"] == 1
        assert info["misses"] == 1

    def test_lru_eviction(self):
        cache = StatementCache(maxsize=2)
        a = cache.statement("SELECT a FROM t")
        cache.statement("SELECT b FROM t")
        cache.statement("SELECT c FROM t")  # evicts a
        assert cache.info()["evictions"] == 1
        assert cache.statement("SELECT a FROM t") is not a

    def test_parse_errors_propagate_uncached(self):
        from repro.errors import SQLSyntaxError

        cache = StatementCache()
        with pytest.raises(SQLSyntaxError):
            cache.statement("SELEKT nope")
        assert len(cache) == 0


class TestHealthOp:
    def test_round_trip(self, client):
        health = client.health()
        assert health["status"] == "ok"
        assert health["role"] == "server"
        assert health["uptime_seconds"] >= 0.0
        assert isinstance(health["in_flight"], int)
        # The demo server is built with the default q-gram accelerator.
        assert health["strategy"] == "qgram"
        assert health["wal_lsn"] is None  # in-memory backend: no WAL

    def test_id_echo_and_extra_fields_ignored(self, server):
        response = raw_exchange(
            server, b'{"op": "health", "id": 42, "junk": [1, 2]}\n'
        )
        assert response["ok"] is True
        assert response["id"] == 42
        assert response["result"]["status"] == "ok"

    def test_malformed_id_rejected(self, server):
        response = raw_exchange(server, b'{"op": "health", "id": {}}\n')
        assert response["ok"] is False
        assert response["error"]["code"] == "invalid_request"

    def test_truncated_json_is_parse_error(self, server):
        response = raw_exchange(server, b'{"op": "health"\n')
        assert response["ok"] is False
        assert response["error"]["code"] == "parse_error"

    def test_health_is_declared_and_retryable(self):
        from repro.server.client import RETRYABLE_OPS

        assert "health" in protocol.OPS
        assert "health" in RETRYABLE_OPS

    def test_wal_lsn_on_persistent_backend(self, tmp_path):
        from repro.core.integration import populate_books_demo
        from repro.server import QueryService
        from repro.storage import open_database

        db = open_database(str(tmp_path / "data"), sync=False)
        populate_books_demo(db)  # WAL-logged inserts advance the LSN
        try:
            service = QueryService(db, strategy="none")
            with BackgroundServer(service) as bg:
                with LexEqualClient(bg.host, bg.port, timeout=30.0) as c:
                    health = c.health()
            assert isinstance(health["wal_lsn"], int)
            assert health["wal_lsn"] > 0
            assert health["strategy"] == "none"
        finally:
            db.storage.close()
