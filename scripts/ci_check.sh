#!/usr/bin/env bash
# Local mirror of .github/workflows/ci.yml: tests, lint, bench smoke.
# Run from the repository root:  ./scripts/ci_check.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== tier-1 tests =="
python -m pytest -x -q

echo "== tier-1 tests under the lock sanitizer (REPRO_LOCKSAN=1) =="
REPRO_LOCKSAN=1 python -m pytest -x -q

echo "== coverage gate (pytest-cov) =="
if python -c "import pytest_cov" >/dev/null 2>&1; then
    python -m pytest -q --cov=repro --cov-fail-under=75
else
    echo "pytest-cov not installed; skipping (CI runs it)"
fi

echo "== lint (ruff) =="
if command -v ruff >/dev/null 2>&1; then
    ruff check .
else
    echo "ruff not installed; skipping (CI runs it)"
fi

echo "== domain lint (repro.analysis, DESIGN.md §8) =="
PYTHONPATH=src python -m repro.cli lint

echo "== concurrency lint (LEX-C rule family, DESIGN.md §8) =="
PYTHONPATH=src python -m repro.cli lint --concurrency

echo "== perf smoke (banded kernel, verifier, q-gram, parallel executor and join-pruning floors) =="
mkdir -p results
python scripts/perf_smoke.py --out results/perf_smoke.json

echo "== perf trend gate (fresh ratios vs committed baseline) =="
python scripts/perf_compare.py BENCH_baseline.json results/perf_smoke.json

echo "== end-to-end benchmark smoke (metric names, trace targets, zero failures) =="
python -m pytest benchmarks/e2e -q

echo "== parallel scaling benchmark (scaled down) =="
REPRO_BENCH_PARALLEL_ROWS="${REPRO_BENCH_PARALLEL_ROWS:-500,2000}" \
REPRO_BENCH_PARALLEL_WORKERS="${REPRO_BENCH_PARALLEL_WORKERS:-1,2}" \
python -m pytest benchmarks/bench_parallel_scaling.py -q

echo "== benchmark smoke (Table 1) =="
REPRO_BENCH_SIZE="${REPRO_BENCH_SIZE:-400}" \
REPRO_BENCH_JOIN="${REPRO_BENCH_JOIN:-100}" \
python -m pytest benchmarks/bench_table1_baseline.py -q

echo "== storage smoke (crash recovery + cold-reopen benchmark) =="
python scripts/recovery_smoke.py
REPRO_BENCH_STORAGE_ROWS="${REPRO_BENCH_STORAGE_ROWS:-2000}" \
python -m pytest benchmarks/bench_storage.py -q

echo "== server smoke (serve + scripted client + SIGTERM drain) =="
python scripts/server_smoke.py

echo "== chaos smoke (seeded fault schedule, 500 requests) =="
REPRO_CHAOS_SEED="${REPRO_CHAOS_SEED:-2004}" \
python scripts/chaos_smoke.py

echo "== server throughput benchmark (scaled down) =="
REPRO_BENCH_SERVER_CONC="${REPRO_BENCH_SERVER_CONC:-1,8}" \
REPRO_BENCH_SERVER_REQS="${REPRO_BENCH_SERVER_REQS:-10}" \
python -m pytest benchmarks/bench_server_throughput.py -q

echo "== OK =="
