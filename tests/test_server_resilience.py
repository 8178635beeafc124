"""Resilience tests: retries, circuit breakers, degradation, deadlines.

Covers the client-side policies (``repro.server.resilience``), the
transport-error taxonomy, the server's graceful degradation of
multiscript matches under per-language TTP failures, cooperative
deadline cancellation, the ``faults`` op gating, the drain ordering
(listener closes before the drain wait), statement-cache eviction
races, and whole answers to writes, ordered and aggregate reads.
"""

import random
import threading
import time

import pytest

from repro import faults, obs
from repro.core.integration import demo_books_db
from repro.errors import (
    CircuitOpenError,
    RequestFailedError,
    ServerConnectionError,
    TransportError,
)
from repro.server import (
    BackgroundServer,
    BreakerPolicy,
    CircuitBreaker,
    LexEqualClient,
    QueryService,
    RetryPolicy,
)
from repro.server.client import RETRYABLE_OPS
from repro.server.resilience import BreakerBoard

LEXEQUAL_SQL = (
    "SELECT author FROM books "
    "WHERE author LEXEQUAL 'Nehru' THRESHOLD 0.25"
)
EXPECTED_AUTHORS = {"Nehru", "नेहरु", "நேரு"}


@pytest.fixture(autouse=True)
def _clean_state():
    faults.reset()
    yield
    faults.reset()
    obs.disable()


def authors_of(result: dict) -> set:
    return {row[0]["text"] for row in result["rows"]}


class TestRetryPolicy:
    def test_backoff_grows_and_caps(self):
        policy = RetryPolicy(
            max_attempts=5, base_delay=0.1, multiplier=2.0, max_delay=0.3
        )
        rng = random.Random(7)
        for retry, cap in ((1, 0.1), (2, 0.2), (3, 0.3), (4, 0.3)):
            delays = [policy.backoff(retry, rng) for _ in range(200)]
            assert all(0.0 <= d <= cap for d in delays)
            # Full jitter: the delays actually spread over [0, cap].
            assert max(delays) > 0.5 * cap

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(base_delay=-0.1)
        with pytest.raises(ValueError):
            RetryPolicy(multiplier=0.5)


class TestCircuitBreaker:
    def make(self, threshold=3, reset=10.0):
        clock = [0.0]
        breaker = CircuitBreaker(
            "query",
            BreakerPolicy(failure_threshold=threshold, reset_timeout=reset),
            clock=lambda: clock[0],
        )
        return breaker, clock

    def test_opens_after_consecutive_failures(self):
        breaker, _ = self.make(threshold=3)
        for _ in range(2):
            breaker.record_failure()
        assert breaker.state == "closed"
        breaker.record_failure()
        assert breaker.state == "open"
        with pytest.raises(CircuitOpenError) as err:
            breaker.allow()
        assert err.value.op == "query"
        assert err.value.retry_after > 0

    def test_success_resets_failure_count(self):
        breaker, _ = self.make(threshold=2)
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == "closed"

    def test_half_open_probe_closes_on_success(self):
        breaker, clock = self.make(threshold=1, reset=5.0)
        breaker.record_failure()
        assert breaker.state == "open"
        clock[0] = 6.0
        breaker.allow()  # probe admitted
        assert breaker.state == "half_open"
        breaker.record_success()
        assert breaker.state == "closed"
        transitions = breaker.info()["transitions"]
        assert transitions["closed->open"] == 1
        assert transitions["open->half_open"] == 1
        assert transitions["half_open->closed"] == 1

    def test_half_open_probe_reopens_on_failure(self):
        breaker, clock = self.make(threshold=1, reset=5.0)
        breaker.record_failure()
        clock[0] = 6.0
        breaker.allow()
        assert breaker.state == "half_open"
        breaker.record_failure()
        assert breaker.state == "open"
        # The reset timer re-armed from the probe failure.
        clock[0] = 8.0
        with pytest.raises(CircuitOpenError):
            breaker.allow()
        clock[0] = 12.0
        breaker.allow()
        assert breaker.state == "half_open"

    def test_board_keeps_one_breaker_per_op(self):
        board = BreakerBoard(BreakerPolicy(failure_threshold=1))
        assert board.breaker("query") is board.breaker("query")
        assert board.breaker("query") is not board.breaker("ping")
        board.breaker("query").record_failure()
        assert board.info()["query"]["state"] == "open"
        assert board.info()["ping"]["state"] == "closed"


class TestTransportErrors:
    def test_refused_connection_is_transport_error(self):
        with pytest.raises(TransportError) as err:
            LexEqualClient("127.0.0.1", 1, timeout=2.0)
        assert isinstance(err.value, ServerConnectionError)
        assert err.value.op == "connect"

    def test_dropped_response_carries_op_and_request_id(self):
        faults.configure("server.conn.drop_write")
        with BackgroundServer(fault_injection=True) as bg:
            with LexEqualClient(bg.host, bg.port, timeout=5.0) as client:
                with pytest.raises(TransportError) as err:
                    client.ping()
        assert err.value.op == "ping"
        assert err.value.request_id == 1
        assert "op 'ping'" in str(err.value)
        assert "request id 1" in str(err.value)


class TestClientRetries:
    def retrying(self, bg, **kwargs):
        kwargs.setdefault(
            "retry", RetryPolicy(max_attempts=4, base_delay=0.01)
        )
        kwargs.setdefault("timeout", 10.0)
        return LexEqualClient(bg.host, bg.port, **kwargs)

    def test_query_survives_one_dropped_response(self):
        faults.configure("server.conn.drop_write", count=1)
        with BackgroundServer(fault_injection=True) as bg:
            with self.retrying(bg) as client:
                result = client.query(LEXEQUAL_SQL)
        assert authors_of(result) == EXPECTED_AUTHORS
        assert faults.describe()["server.conn.drop_write"]["fires"] == 1

    def test_query_survives_one_dropped_request(self):
        faults.configure("server.conn.drop_read", count=1)
        with BackgroundServer(fault_injection=True) as bg:
            with self.retrying(bg) as client:
                assert client.ping() == "pong"

    def test_no_policy_means_no_retry(self):
        faults.configure("server.conn.drop_write", count=1)
        with BackgroundServer(fault_injection=True) as bg:
            with LexEqualClient(bg.host, bg.port, timeout=5.0) as client:
                with pytest.raises(TransportError):
                    client.ping()

    def test_prepare_and_execute_are_not_transport_retried(self):
        assert "prepare" not in RETRYABLE_OPS
        assert "execute" not in RETRYABLE_OPS
        faults.configure("server.conn.drop_write", count=2)
        with BackgroundServer(fault_injection=True) as bg:
            with self.retrying(bg) as client:
                with pytest.raises(TransportError) as err:
                    client.prepare("SELECT title FROM books", name="all")
                assert err.value.op == "prepare"
                with pytest.raises(TransportError) as err:
                    client.execute("all")
                assert err.value.op == "execute"

    def test_overloaded_reject_is_retried_for_any_op(self):
        # An injected admission reject: the request never ran, so even
        # a non-idempotent execute may be resubmitted.
        with BackgroundServer(fault_injection=True) as bg:
            with self.retrying(bg) as client:
                name = client.prepare("SELECT title FROM books", name="all")
                faults.configure("pool.admit", count=1)
                result = client.execute(name)
        assert result["row_count"] == 6

    def test_retries_exhaust_into_transport_error(self):
        faults.configure("server.conn.drop_write")  # every response lost
        with BackgroundServer(fault_injection=True) as bg:
            with self.retrying(bg) as client:
                with pytest.raises(TransportError):
                    client.ping()

    def test_breaker_trips_after_repeated_transport_failures(self):
        faults.configure("server.conn.drop_write")
        with BackgroundServer(fault_injection=True) as bg:
            client = LexEqualClient(
                bg.host,
                bg.port,
                timeout=5.0,
                breaker=BreakerPolicy(
                    failure_threshold=2, reset_timeout=60.0
                ),
            )
            try:
                for _ in range(2):
                    with pytest.raises(TransportError):
                        client.ping()
                with pytest.raises(CircuitOpenError):
                    client.ping()
                info = client.resilience_info()["ping"]
                assert info["state"] == "open"
                assert info["transitions"]["closed->open"] == 1
            finally:
                client.close()


class TestDegradedResponses:
    def test_query_degrades_when_one_language_fails(self):
        with BackgroundServer(fault_injection=True) as bg:
            # Configure after startup: the demo database (and its
            # phonetic index) must build cleanly first.
            faults.configure(
                "ttp.transform", error="ttp", languages=("hindi",)
            )
            with LexEqualClient(bg.host, bg.port, timeout=30.0) as client:
                result = client.query(LEXEQUAL_SQL)
        assert result["degraded"] is True
        assert result["failed_languages"] == ["hindi"]
        assert authors_of(result) == EXPECTED_AUTHORS - {"नेहरु"}

    def test_healthy_query_has_no_degraded_marker(self):
        with BackgroundServer() as bg:
            with LexEqualClient(bg.host, bg.port, timeout=30.0) as client:
                result = client.query(LEXEQUAL_SQL)
        assert "degraded" not in result
        assert authors_of(result) == EXPECTED_AUTHORS

    def test_query_operand_language_failure_degrades_not_errors(self):
        # The *query* constant is english: its transform failing must
        # degrade the match (falling back to per-row evaluation, which
        # then degrades every row), never error the request.
        with BackgroundServer(fault_injection=True) as bg:
            faults.configure(
                "ttp.transform", error="ttp", languages=("english",)
            )
            with LexEqualClient(bg.host, bg.port, timeout=30.0) as client:
                result = client.query(LEXEQUAL_SQL)
        assert result["degraded"] is True
        assert "english" in result["failed_languages"]
        assert authors_of(result) <= EXPECTED_AUTHORS

    def test_lexequal_degrades_to_noresource(self):
        with BackgroundServer(fault_injection=True) as bg:
            faults.configure(
                "ttp.transform", error="ttp", languages=("hindi",)
            )
            with LexEqualClient(bg.host, bg.port, timeout=30.0) as client:
                result = client.lexequal("Nehru", "नेहरु")
                healthy = client.lexequal("Nehru", "Nero")
        assert result["outcome"] == "noresource"
        assert result["match"] is None
        assert result["degraded"] is True
        assert result["failed_languages"] == ["hindi"]
        # Other language pairs are untouched by the hindi outage.
        assert healthy["outcome"] in ("true", "false")
        assert "degraded" not in healthy

    def test_degradation_clears_once_the_language_recovers(self):
        with BackgroundServer(fault_injection=True) as bg:
            faults.configure(
                "ttp.transform", error="ttp", languages=("hindi",)
            )
            with LexEqualClient(bg.host, bg.port, timeout=30.0) as client:
                degraded = client.query("SELECT title FROM books")
                lost = client.query(LEXEQUAL_SQL)
                faults.reset()
                healed = client.query(LEXEQUAL_SQL)
        # A plain read never transforms names: nothing to degrade.
        assert "degraded" not in degraded and degraded["row_count"] == 6
        assert lost["degraded"] is True and lost["row_count"] == 2
        assert "degraded" not in healed
        assert authors_of(healed) == EXPECTED_AUTHORS

    def test_degraded_responses_are_counted(self):
        with BackgroundServer(fault_injection=True) as bg:
            faults.configure(
                "ttp.transform", error="ttp", languages=("hindi",)
            )
            with LexEqualClient(bg.host, bg.port, timeout=30.0) as client:
                client.query(LEXEQUAL_SQL)
                counters = client.stats()["metrics"]["counters"]
        assert counters["server.degraded_responses"] >= 1


class TestDeadlineCancellation:
    def test_deadline_cancels_doomed_work_and_frees_the_slot(self):
        # The injected latency makes the request blow its deadline while
        # on the worker; the DP loop then cancels cooperatively instead
        # of matching to completion.
        faults.configure("pool.execute", latency=0.3, count=1)
        with BackgroundServer(fault_injection=True) as bg:
            with LexEqualClient(bg.host, bg.port, timeout=30.0) as client:
                with pytest.raises(RequestFailedError) as err:
                    client.query(LEXEQUAL_SQL, timeout=0.05)
                assert err.value.code == "timeout"
                deadline = time.monotonic() + 5.0
                counters = {}
                while time.monotonic() < deadline:
                    counters = client.stats()["metrics"]["counters"]
                    if counters.get("server.deadline.cancels", 0) >= 1:
                        break
                    time.sleep(0.05)
        assert counters.get("server.deadline.cancels", 0) >= 1
        assert counters.get("matching.dp.deadline_cancels", 0) >= 1

    def test_fast_requests_are_unaffected_by_deadlines(self):
        with BackgroundServer() as bg:
            with LexEqualClient(bg.host, bg.port, timeout=30.0) as client:
                result = client.query(LEXEQUAL_SQL, timeout=10.0)
        assert authors_of(result) == EXPECTED_AUTHORS


class TestFaultsOpGating:
    def test_faults_op_disabled_by_default(self):
        with BackgroundServer() as bg:
            with LexEqualClient(bg.host, bg.port, timeout=5.0) as client:
                with pytest.raises(RequestFailedError) as err:
                    client.faults("list")
        assert err.value.code == "invalid_request"

    def test_faults_op_round_trip(self):
        with BackgroundServer(fault_injection=True) as bg:
            with LexEqualClient(bg.host, bg.port, timeout=5.0) as client:
                client.faults("seed", seed=2004)
                listed = client.faults(
                    "configure",
                    name="ttp.transform",
                    probability=0.5,
                    error="ttp",
                    languages=["hindi"],
                )
                info = listed["failpoints"]["ttp.transform"]
                assert info["probability"] == 0.5
                assert info["error"] == "ttp"
                assert info["languages"] == ["hindi"]
                listed = client.faults("disable", name="ttp.transform")
                assert listed["failpoints"] == {}
                client.faults("configure", name="pool.admit", count=1)
                listed = client.faults("reset")
                assert listed["failpoints"] == {}

    def test_faults_op_validates_configure(self):
        with BackgroundServer(fault_injection=True) as bg:
            with LexEqualClient(bg.host, bg.port, timeout=5.0) as client:
                with pytest.raises(RequestFailedError) as err:
                    client.faults("configure", name="x", error="bogus")
                assert err.value.code == "invalid_request"
                with pytest.raises(RequestFailedError):
                    client.faults("configure")  # missing name
                with pytest.raises(RequestFailedError):
                    client.faults("explode")


class TestDrainOrdering:
    def test_listener_closes_before_drain_waits_on_inflight(self):
        """Regression: during the drain wait, new connects are refused.

        The shutdown path must close the listening socket *before*
        waiting on in-flight work; otherwise a connection arriving
        mid-drain would be accepted and then never answered.
        """
        faults.configure("pool.execute", latency=0.8, count=1)
        bg = BackgroundServer(fault_injection=True, drain_timeout=15.0)
        bg.start()
        results: list = []
        errors: list = []

        def inflight():
            try:
                with LexEqualClient(bg.host, bg.port, timeout=30.0) as c:
                    results.append(c.query(LEXEQUAL_SQL))
            except Exception as exc:  # surfaced via `errors`
                errors.append(repr(exc))

        t = threading.Thread(target=inflight)
        t.start()
        time.sleep(0.25)  # the slow request is on a worker now
        stopper = threading.Thread(target=bg.stop)
        stopper.start()
        time.sleep(0.25)  # drain has begun; ~0.5s of work remains
        try:
            with pytest.raises(TransportError):
                LexEqualClient(bg.host, bg.port, timeout=2.0)
        finally:
            stopper.join(timeout=30.0)
            t.join(timeout=30.0)
        # The in-flight request still completed and got its response.
        assert not errors, errors
        assert results and authors_of(results[0]) == EXPECTED_AUTHORS


class TestStatementCacheEvictionRaces:
    #: Distinct SQL texts (distinct cache entries) with known answers.
    CASES = [
        ("SELECT title FROM books WHERE price < 10.0", 1),
        ("SELECT title FROM books WHERE price < 20.0", 2),
        ("SELECT title FROM books WHERE price < 50.0", 3),
        ("SELECT title FROM books WHERE price < 100.0", 4),
        ("SELECT title FROM books WHERE price < 200.0", 5),
        ("SELECT title FROM books WHERE price < 300.0", 6),
    ]

    def test_concurrent_eviction_never_serves_wrong_results(self):
        """8 clients churn a 2-entry statement cache; answers stay right."""
        service = QueryService(
            demo_books_db("none"), statement_cache_size=2
        )
        failures: list = []

        def worker(i, host, port):
            try:
                with LexEqualClient(host, port, timeout=60.0) as client:
                    for round_no in range(3):
                        for j, (sql, expected) in enumerate(self.CASES):
                            name = client.prepare(
                                sql, name=f"stmt_{i}_{round_no}_{j}"
                            )
                            count = client.execute(name)["row_count"]
                            if count != expected:
                                failures.append((sql, count, expected))
                            count = client.query(sql)["row_count"]
                            if count != expected:
                                failures.append((sql, count, expected))
            except Exception as exc:  # surfaced via `failures`
                failures.append(("exception", repr(exc)))

        with BackgroundServer(service, max_workers=4) as bg:
            threads = [
                threading.Thread(target=worker, args=(i, bg.host, bg.port))
                for i in range(8)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120.0)
            assert not failures, failures[:5]
            with LexEqualClient(bg.host, bg.port) as client:
                info = client.stats()["statement_cache"]
        assert info["size"] <= 2
        assert info["evictions"] > 0


class TestHalfOpenConcurrency:
    """A `BreakerBoard` hands every caller of an op the same breaker,
    so threads sharing a board race one breaker: half-open must admit
    exactly one probe no matter how many threads race `allow()`, and a
    failed probe must release the permit."""

    def make(self, threshold=1, reset=5.0):
        clock = [0.0]
        breaker = CircuitBreaker(
            "query",
            BreakerPolicy(failure_threshold=threshold, reset_timeout=reset),
            clock=lambda: clock[0],
        )
        return breaker, clock

    def test_two_threads_racing_allow_admit_exactly_one_probe(self):
        breaker, clock = self.make()
        breaker.record_failure()
        assert breaker.state == "open"
        clock[0] = 6.0  # reset timeout elapsed: next allow() half-opens

        outcomes: list[str] = []
        barrier = threading.Barrier(2)

        def attempt():
            barrier.wait()
            try:
                breaker.allow()
                outcomes.append("admitted")
            except CircuitOpenError:
                outcomes.append("rejected")

        threads = [threading.Thread(target=attempt) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10.0)
        assert sorted(outcomes) == ["admitted", "rejected"]
        assert breaker.state == "half_open"
        assert breaker.info()["probe_in_flight"] is True

    def test_many_threads_still_one_probe(self):
        breaker, clock = self.make()
        breaker.record_failure()
        clock[0] = 6.0
        outcomes: list[str] = []
        barrier = threading.Barrier(8)

        def attempt():
            barrier.wait()
            try:
                breaker.allow()
                outcomes.append("admitted")
            except CircuitOpenError:
                outcomes.append("rejected")

        threads = [threading.Thread(target=attempt) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10.0)
        assert outcomes.count("admitted") == 1
        assert outcomes.count("rejected") == 7

    def test_probe_failure_reopens_without_losing_the_permit(self):
        breaker, clock = self.make()
        breaker.record_failure()
        clock[0] = 6.0
        breaker.allow()  # the probe
        # Everyone else fast-fails while the probe is in flight.
        with pytest.raises(CircuitOpenError):
            breaker.allow()
        breaker.record_failure()  # probe fails
        assert breaker.state == "open"
        assert breaker.info()["probe_in_flight"] is False
        # Timer re-armed: still fast-failing before the next window...
        clock[0] = 8.0
        with pytest.raises(CircuitOpenError):
            breaker.allow()
        # ...and the permit was released: the next window admits a new
        # probe, whose success closes the circuit.
        clock[0] = 12.0
        breaker.allow()
        assert breaker.state == "half_open"
        breaker.record_success()
        assert breaker.state == "closed"
        assert breaker.info()["probe_in_flight"] is False


class TestWritesAndWholeReads:
    """One server answers DDL, multi-row INSERT, and ordered, limited
    and aggregate reads whole, over the wire."""

    def test_ddl_and_multirow_insert_round_trip(self):
        with BackgroundServer() as bg:
            with LexEqualClient(bg.host, bg.port, timeout=30.0) as client:
                made = client.query(
                    "CREATE TABLE loans (name TEXT, title TEXT)"
                )
                wrote = client.query(
                    "INSERT INTO loans VALUES "
                    "('Tagore', 'Gitanjali'), ('Thakur', 'Chokher Bali')"
                )
                after = client.query("SELECT name FROM loans")
        assert made["row_count"] == 0
        assert wrote["row_count"] == 2
        assert after["row_count"] == 2
        assert {r[0] for r in after["rows"]} == {"Tagore", "Thakur"}

    @pytest.mark.parametrize(
        "sql, rows",
        [
            ("SELECT price FROM books ORDER BY price LIMIT 2",
             [[9.95], [15.5]]),
            ("SELECT COUNT(*) FROM books", [[6]]),
            ("SELECT language, COUNT(*) FROM books GROUP BY language "
             "ORDER BY language",
             [["english", 2], ["french", 1], ["greek", 1], ["hindi", 1],
              ["tamil", 1]]),
        ],
    )
    def test_ordered_and_aggregate_reads(self, sql, rows):
        with BackgroundServer() as bg:
            with LexEqualClient(bg.host, bg.port, timeout=30.0) as client:
                result = client.query(sql)
        assert result["rows"] == rows
        assert "degraded" not in result
