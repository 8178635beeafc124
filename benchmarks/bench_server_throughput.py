"""Server throughput: latency percentiles and QPS vs client concurrency.

Beyond the paper: the ROADMAP's north star is a network *service*, so
this benchmark measures the serving layer itself.  A
:class:`~repro.server.app.BackgroundServer` hosts the Books.com demo
catalog with the q-gram accelerator, and a load generator sweeps client
concurrency, each client issuing a mixed workload (accelerated LexEQUAL
selections + direct ``lexequal`` comparisons) over its own connection.

Reported per concurrency level: requests/sec and p50/p95/p99 request
latency, plus a correctness tally (every response is checked against
the known answer — a wrong result fails the benchmark).  Environment
knobs: ``REPRO_BENCH_SERVER_CONC`` (comma-separated sweep, default
``1,2,4,8``), ``REPRO_BENCH_SERVER_REQS`` (requests per client,
default 30), ``REPRO_BENCH_SERVER_WORKERS`` (pool threads, default
the server's, :data:`repro.server.workers.DEFAULT_WORKERS`).
"""

from __future__ import annotations

import os
import threading
import time

from repro.evaluation.report import format_table
from repro.server import BackgroundServer, LexEqualClient
from repro.server.workers import DEFAULT_WORKERS

from conftest import save_result

CONCURRENCIES = [
    int(c)
    for c in os.environ.get("REPRO_BENCH_SERVER_CONC", "1,2,4,8").split(",")
    if c
]
REQUESTS_PER_CLIENT = int(os.environ.get("REPRO_BENCH_SERVER_REQS", "30"))
WORKERS = int(
    os.environ.get("REPRO_BENCH_SERVER_WORKERS", str(DEFAULT_WORKERS))
)

LEXEQUAL_SQL = (
    "SELECT author FROM books "
    "WHERE author LEXEQUAL 'Nehru' THRESHOLD 0.25"
)
EXPECTED_AUTHORS = {"Nehru", "नेहरु", "நேரு"}


def percentile(sorted_values: list[float], fraction: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    if not sorted_values:
        return 0.0
    rank = min(
        len(sorted_values) - 1,
        max(0, round(fraction * (len(sorted_values) - 1))),
    )
    return sorted_values[rank]


def run_client(
    host: str, port: int, latencies: list[float], wrong: list
) -> None:
    """One load-generator client: mixed query/lexequal workload."""
    local: list[float] = []
    with LexEqualClient(host, port, timeout=120.0) as client:
        for i in range(REQUESTS_PER_CLIENT):
            started = time.perf_counter()
            if i % 3 == 2:
                result = client.lexequal("Nehru", "नेहरु")
                ok = result["outcome"] == "true"
            else:
                rows = client.query(LEXEQUAL_SQL)["rows"]
                ok = {row[0]["text"] for row in rows} == EXPECTED_AUTHORS
            local.append(time.perf_counter() - started)
            if not ok:
                wrong.append((i, result if i % 3 == 2 else rows))
    latencies.extend(local)  # one append per client: no torn lists


def test_server_throughput():
    rows = []
    data: dict[str, dict] = {}
    with BackgroundServer(
        max_workers=WORKERS, max_inflight=max(64, 4 * max(CONCURRENCIES))
    ) as bg:
        # Warm the TTP and statement caches so every sweep level sees
        # the steady state a long-running server would.
        with LexEqualClient(bg.host, bg.port) as warm:
            warm.query(LEXEQUAL_SQL)
            warm.lexequal("Nehru", "नेहरु")
        for concurrency in CONCURRENCIES:
            latencies: list[float] = []
            wrong: list = []
            threads = [
                threading.Thread(
                    target=run_client,
                    args=(bg.host, bg.port, latencies, wrong),
                )
                for _ in range(concurrency)
            ]
            started = time.perf_counter()
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            elapsed = time.perf_counter() - started
            assert not wrong, f"wrong results at concurrency {concurrency}"
            total = concurrency * REQUESTS_PER_CLIENT
            assert len(latencies) == total
            latencies.sort()
            qps = total / elapsed
            p50 = percentile(latencies, 0.50)
            p95 = percentile(latencies, 0.95)
            p99 = percentile(latencies, 0.99)
            rows.append(
                [
                    str(concurrency),
                    str(total),
                    f"{qps:,.0f}",
                    f"{p50 * 1000:.2f}",
                    f"{p95 * 1000:.2f}",
                    f"{p99 * 1000:.2f}",
                ]
            )
            data[str(concurrency)] = {
                "requests": total,
                "qps": qps,
                "p50_ms": p50 * 1000,
                "p95_ms": p95 * 1000,
                "p99_ms": p99 * 1000,
            }
        with LexEqualClient(bg.host, bg.port) as client:
            stats = client.stats()
    text = format_table(
        ["Clients", "Requests", "QPS", "p50 ms", "p95 ms", "p99 ms"],
        rows,
        title=(
            "Server throughput — mixed LexEQUAL workload "
            f"({WORKERS} workers, {REQUESTS_PER_CLIENT} reqs/client)"
        ),
    )
    data["server_stats"] = {
        "statement_cache": stats["statement_cache"],
        "pool": stats["server"]["pool"],
    }
    save_result("server_throughput.txt", text, data)

    # Sanity floor (scaled sizes): the service keeps responding at the
    # highest sweep level and the cache served the repeated statement.
    assert stats["statement_cache"]["hits"] > 0
