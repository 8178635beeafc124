"""Smoke test of the end-to-end benchmark at tiny sizes.

Run with ``python -m pytest benchmarks/e2e -q``.  Every workload runs
untraced and traced through ``run.py --smoke`` as a subprocess, exactly
as the benchmark command runs it.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
from collections import Counter
from multiprocessing import shared_memory
from pathlib import Path

import pytest

import run
import spans
import workloads
from inputs import Query, make_dataset
from oracle import JoinOracle, SelectOracle

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """(workload, trace) -> (summary line, stdout, result file)."""
    out = tmp_path_factory.mktemp("e2e")
    results = {}
    for workload in (w["name"] for w in SPEC["workloads"]):
        for trace in (0, 1):
            proc = subprocess.run(
                [
                    sys.executable, str(HERE / "run.py"),
                    "--workload", workload, "--seed", "7", "--seconds", "1",
                    "--trace", str(trace), "--smoke", "--out", str(out),
                ],
                capture_output=True,
                text=True,
                timeout=120,
                cwd=ROOT,
            )
            assert proc.returncode == 0, proc.stderr
            suffix = "-trace" if trace else ""
            detail = json.loads((out / f"{workload}-s7{suffix}.json").read_text())
            summary = json.loads(proc.stdout.strip().splitlines()[-1])
            results[workload, trace] = (summary, proc.stdout, detail)
    return results


def test_every_benchmark_metric_is_emitted_with_its_unit(runs):
    for (_workload, trace), (summary, stdout, _detail) in runs.items():
        spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
        expected = {m["name"]: m["unit"] for m in spec}
        emitted = {name: m["unit"] for name, m in summary["metrics"].items()}
        assert emitted == expected
        printed = {
            line.split()[0]: line.split()[2]
            for line in stdout.splitlines()[:-1]
            if not line.startswith("#")
        }
        assert printed == expected


def test_every_answer_is_correct(runs):
    for (workload, trace), (summary, _stdout, detail) in runs.items():
        assert summary["attempted"] >= 1
        assert summary["failed"] == 0, (workload, trace, detail["failures"])
        assert summary["correct"] is True
        if trace:
            assert summary["metrics"]["failed_frac"]["value"] == 0


def test_every_trace_target_records_a_span(runs):
    counts = Counter()
    for (_workload, trace), (_summary, _stdout, detail) in runs.items():
        if trace:
            counts.update(detail["span_counts"])
    assert set(counts) == set(spans.SPAN_NAMES)
    assert not [name for name in spans.SPAN_NAMES if counts[name] == 0]


def test_a_run_stops_the_resource_tracker():
    # Shared memory starts multiprocessing's resource tracker, which
    # would otherwise outlive the run (the join workload's pool uses it).
    segment = shared_memory.SharedMemory(create=True, size=64)
    segment.close()
    segment.unlink()
    assert run._child_pids()
    run._stop_children()
    assert run._child_pids() == []


def test_an_unresolvable_trace_target_fails(monkeypatch):
    monkeypatch.setattr(
        spans, "TARGETS", (("x", "repro.core.engine", "NoSuchThing.method", None),)
    )
    with pytest.raises(spans.TargetError):
        spans.install(spans.Tracer())


def test_an_injected_wrong_row_counts_as_a_failure():
    dataset = make_dataset(seed=3, rows=60)
    matcher = workloads.LexEqualMatcher(workloads.PERF_CONFIG)
    oracle = SelectOracle(matcher, workloads.THRESHOLD)
    for row_id, item in enumerate(dataset.rows):
        oracle.add(row_id, item.name, item.language)
    query = Query(dataset.rows[0].name)
    right = sorted(oracle.expected(query))
    wrong = next(i for i in range(len(dataset.rows)) if i not in right)

    clean = workloads.Result()
    workloads._check_selects(clean, oracle, [(query, right)], random.Random(0))
    assert clean.failed == 0

    injected = workloads.Result()
    workloads._check_selects(
        injected, oracle, [(query, right + [wrong])], random.Random(0)
    )
    assert injected.failed == 1

    missing = workloads.Result()
    workloads._check_selects(missing, oracle, [(query, [])], random.Random(0))
    assert missing.failed == 1


def test_an_injected_wrong_pair_counts_as_a_failure():
    dataset = make_dataset(seed=3, rows=60)
    oracle = JoinOracle(
        workloads.LexEqualMatcher(workloads.MatchConfig()),
        workloads.THRESHOLD,
        ((i, item.language, item.ipa) for i, item in enumerate(dataset.rows)),
    )
    pairs = [
        (a, b)
        for a in range(len(dataset.rows))
        for b in range(a + 1, len(dataset.rows))
        if oracle.matches(a, b)
    ]
    wrong = next(
        (a, b)
        for a in range(len(dataset.rows))
        for b in range(a + 1, len(dataset.rows))
        if (a, b) not in pairs
    )

    clean = workloads.Result()
    workloads._check_joins(clean, oracle, [pairs, pairs], pairs)
    assert clean.failed == 0

    injected = workloads.Result()
    workloads._check_joins(
        injected, oracle, [pairs, sorted(pairs + [wrong])], pairs
    )
    assert injected.failed == 1

    missing = workloads.Result()
    workloads._check_joins(missing, oracle, [pairs[1:]], pairs)
    assert missing.failed == 1
