"""Concurrency tests: parallel clients, timeouts, backpressure, drain."""

import threading
import time

import pytest

from repro import obs
from repro.core.integration import demo_books_db
from repro.errors import RequestFailedError, ServerConnectionError
from repro.minidb.catalog import Database
from repro.minidb.schema import Column
from repro.minidb.values import SqlType
from repro.server import BackgroundServer, LexEqualClient, QueryService


@pytest.fixture(autouse=True)
def _reset_metrics():
    yield
    obs.disable()


def slow_service(delay: float = 0.4) -> QueryService:
    """A service whose ``slow(x)`` UDF sleeps: deterministic long queries."""
    db = Database()
    db.create_table("t", [Column("x", SqlType.INTEGER)])
    db.insert("t", (1,))

    def slow(x):
        time.sleep(delay)
        return x

    db.register_udf("slow", slow)
    return QueryService(db)


SLOW_SQL = "SELECT slow(x) FROM t"

LEXEQUAL_SQL = (
    "SELECT author FROM books "
    "WHERE author LEXEQUAL 'Nehru' THRESHOLD 0.25"
)
EXPECTED_AUTHORS = {"Nehru", "नेहरु", "நேரு"}


class TestConcurrentClients:
    # The default pool runs one engine thread; four keep the engine's
    # thread safety covered, since ``--workers`` can still add threads.
    @pytest.mark.parametrize(
        "pool", [{}, {"max_workers": 4}], ids=["default", "workers-4"]
    )
    def test_eight_clients_consistent_results(self, pool):
        """8 parallel clients, mixed query/lexequal, zero wrong results."""
        service = QueryService(demo_books_db("qgram"))
        failures: list = []

        def worker(host, port, rounds=5):
            try:
                with LexEqualClient(host, port, timeout=60.0) as client:
                    for _ in range(rounds):
                        rows = client.query(LEXEQUAL_SQL)["rows"]
                        got = {row[0]["text"] for row in rows}
                        if got != EXPECTED_AUTHORS:
                            failures.append(("query", got))
                        outcome = client.lexequal("Nehru", "नेहरु")
                        if outcome["outcome"] != "true":
                            failures.append(("lexequal", outcome))
                        miss = client.lexequal("Nehru", "Smith")
                        if miss["outcome"] != "false":
                            failures.append(("lexequal-miss", miss))
            except Exception as exc:  # surfaced via `failures`
                failures.append(("exception", repr(exc)))

        with BackgroundServer(service, **pool) as bg:
            threads = [
                threading.Thread(target=worker, args=(bg.host, bg.port))
                for _ in range(8)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120.0)
            assert not failures, failures[:3]
            with LexEqualClient(bg.host, bg.port) as client:
                stats = client.stats()
                counters = stats["metrics"]["counters"]
                # 8 clients x 5 rounds x 3 requests, plus this stats op.
                assert counters["server.requests"] >= 8 * 5 * 3
                assert counters["server.connections.opened"] >= 9

    def test_default_pool_reports_one_worker(self):
        with BackgroundServer() as bg, LexEqualClient(bg.host, bg.port) as c:
            assert c.stats()["server"]["pool"]["workers"] == 1
            assert c.health()["workers"] == 1

    def test_concurrent_prepared_statements_stay_per_session(self):
        service = QueryService(demo_books_db("none"))
        results: dict[int, int] = {}

        def worker(i, host, port):
            with LexEqualClient(host, port, timeout=60.0) as client:
                name = client.prepare(
                    "SELECT title FROM books WHERE price < :p",
                    name=f"mine_{i}",
                )
                results[i] = client.execute(name, {"p": 20.0})["row_count"]

        with BackgroundServer(service) as bg:
            threads = [
                threading.Thread(target=worker, args=(i, bg.host, bg.port))
                for i in range(4)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60.0)
        assert results == {0: 2, 1: 2, 2: 2, 3: 2}


class TestTimeouts:
    def test_request_timeout_fires(self):
        with BackgroundServer(
            slow_service(0.5), request_timeout=0.05
        ) as bg:
            with LexEqualClient(bg.host, bg.port) as client:
                with pytest.raises(RequestFailedError) as err:
                    client.query(SLOW_SQL)
                assert err.value.code == "timeout"
                # The connection survives a timed-out request.
                assert client.ping() == "pong"
                counters = client.stats()["metrics"]["counters"]
                assert counters["server.timeouts"] >= 1

    def test_per_request_timeout_override(self):
        with BackgroundServer(
            slow_service(0.2), request_timeout=30.0
        ) as bg:
            with LexEqualClient(bg.host, bg.port) as client:
                with pytest.raises(RequestFailedError) as err:
                    client.query(SLOW_SQL, timeout=0.05)
                assert err.value.code == "timeout"
                # timeout=0 disables the deadline entirely.
                result = client.query(SLOW_SQL, timeout=0)
                assert result["row_count"] == 1


class TestBackpressure:
    def test_overload_rejects_instead_of_hanging(self):
        with BackgroundServer(
            slow_service(0.8), max_workers=1, max_inflight=1
        ) as bg:
            first_result: list = []

            def occupant():
                with LexEqualClient(bg.host, bg.port, timeout=60.0) as c:
                    first_result.append(c.query(SLOW_SQL))

            t = threading.Thread(target=occupant)
            t.start()
            time.sleep(0.25)  # let the first request occupy the slot
            started = time.perf_counter()
            with LexEqualClient(bg.host, bg.port) as client:
                with pytest.raises(RequestFailedError) as err:
                    client.query(SLOW_SQL)
                rejected_after = time.perf_counter() - started
                assert err.value.code == "overloaded"
                # A reject is immediate, not queued behind the slow one.
                assert rejected_after < 0.5
                counters = client.stats()["metrics"]["counters"]
                assert counters["server.rejects.overloaded"] >= 1
            t.join(timeout=30.0)
            assert first_result and first_result[0]["row_count"] == 1


class TestGracefulDrain:
    def test_sigterm_equivalent_drains_inflight(self):
        """stop() waits for the in-flight request's response to be sent."""
        bg = BackgroundServer(slow_service(0.6), drain_timeout=10.0)
        bg.start()
        results: list = []
        errors: list = []

        def inflight():
            try:
                with LexEqualClient(bg.host, bg.port, timeout=60.0) as c:
                    results.append(c.query(SLOW_SQL))
            except Exception as exc:
                errors.append(repr(exc))

        t = threading.Thread(target=inflight)
        t.start()
        time.sleep(0.2)  # request is now on a worker
        bg.stop()  # graceful drain, same path as SIGTERM
        t.join(timeout=30.0)
        assert not errors, errors
        assert results and results[0]["row_count"] == 1
        # After drain the server is gone: new connections are refused.
        with pytest.raises(ServerConnectionError):
            LexEqualClient(bg.host, bg.port, timeout=2.0)

    def test_draining_rejects_new_requests(self):
        bg = BackgroundServer(slow_service(0.8), drain_timeout=10.0)
        bg.start()
        ok: list = []

        def inflight():
            with LexEqualClient(bg.host, bg.port, timeout=60.0) as c:
                ok.append(c.query(SLOW_SQL))

        # An idle second connection opened before the drain begins.
        bystander = LexEqualClient(bg.host, bg.port, timeout=60.0)
        t = threading.Thread(target=inflight)
        t.start()
        time.sleep(0.2)
        stopper = threading.Thread(target=bg.stop)
        stopper.start()
        time.sleep(0.1)  # drain has begun, first request still running
        try:
            with pytest.raises((RequestFailedError, ServerConnectionError)):
                bystander.query("SELECT x FROM t")
        finally:
            bystander.close()
            stopper.join(timeout=30.0)
            t.join(timeout=30.0)
        assert ok and ok[0]["row_count"] == 1
