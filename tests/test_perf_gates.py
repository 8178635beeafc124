"""The perf-regression gate: floors, baseline diffs, scaling honesty.

These tests demonstrate (per the acceptance criteria) that the
perf-smoke CI job *fails* when a speedup ratio regresses below the
committed baseline tolerance — including the "N workers must beat 1
worker" scaling ratio, which only a machine with enough CPUs and a big
enough catalog is allowed to enforce.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

from repro import perf

SCRIPTS = os.path.join(os.path.dirname(__file__), "..", "scripts")
REPO = os.path.join(os.path.dirname(__file__), "..")


def report(
    rows=50_000,
    cpu_count=8,
    scaling_workers=4,
    **ratios,
) -> dict:
    base = {
        "kernel_banded_vs_reference": 5.0,
        "kernel_batch_vs_reference": 8.0,
        "executor_vs_naive": 12.0,
        "qgram_vs_naive": 100.0,
        "verify_vs_scalar": 6.0,
        "join_dp_reduction": 30.0,
        "scaling_4v1": 3.2,
        "join_2v1": 1.8,
        "serve_1v4": 1.2,
    }
    base.update(ratios)
    return {
        "rows": rows,
        "cpu_count": cpu_count,
        "scaling_workers": scaling_workers,
        "ratios": base,
    }


class TestFloors:
    def test_healthy_report_passes(self):
        assert perf.check_floors(report()) == []

    def test_kernel_floor_trips(self):
        failures = perf.check_floors(
            report(kernel_banded_vs_reference=1.1)
        )
        assert any("kernel_banded_vs_reference" in f for f in failures)

    def test_executor_floor_trips(self):
        failures = perf.check_floors(report(executor_vs_naive=0.9))
        assert any("executor_vs_naive" in f for f in failures)

    def test_qgram_floor_trips(self):
        failures = perf.check_floors(report(qgram_vs_naive=4.0))
        assert any("qgram_vs_naive" in f for f in failures)

    def test_verify_floor_trips(self):
        failures = perf.check_floors(report(verify_vs_scalar=1.2))
        assert any("verify_vs_scalar" in f for f in failures)

    def test_join_pruning_floor_trips(self):
        failures = perf.check_floors(report(join_dp_reduction=4.0))
        assert any("join_dp_reduction" in f for f in failures)

    def test_missing_ratio_trips(self):
        bad = report()
        del bad["ratios"]["executor_vs_naive"]
        failures = perf.check_floors(bad)
        assert any("missing ratio" in f for f in failures)


class TestScalingGate:
    """The previously-unchecked 'N workers must beat 1 worker' ratio."""

    def test_anti_scaling_fails_on_capable_hardware(self):
        failures = perf.check_floors(report(scaling_4v1=0.8))
        assert any("must beat 1 worker" in f for f in failures)

    def test_anti_scaling_ignored_on_single_cpu(self):
        assert perf.check_floors(report(cpu_count=1, scaling_4v1=0.8)) == []

    def test_anti_scaling_ignored_on_tiny_catalog(self):
        # Below SCALING_MIN_ROWS dispatch overhead dominates the query;
        # the ratio is recorded for the trend line but not enforced.
        assert (
            perf.check_floors(
                report(rows=perf.SCALING_MIN_ROWS - 1, scaling_4v1=0.8)
            )
            == []
        )

    def test_enforcement_boundary(self):
        assert perf.scaling_enforced(report())
        assert not perf.scaling_enforced(report(cpu_count=3))
        assert not perf.scaling_enforced(report(rows=100))


class TestJoinPoolGate:
    """``join_2v1``: the pooled join must keep beating the inline one."""

    def test_regression_fails_on_two_cpus(self):
        # Unlike scaling_4v1, the join ratio holds at smoke scale.
        fresh = report(rows=1500, cpu_count=2, join_2v1=0.9)
        failures = perf.compare(report(rows=1500), fresh, tolerance=0.35)
        assert any("join_2v1 regressed" in f for f in failures)

    def test_skipped_on_single_cpu(self):
        fresh = report(cpu_count=1, join_2v1=0.5)
        assert perf.compare(report(), fresh, tolerance=0.35) == []


class TestServeThreadsGate:
    """``serve_1v4``: the default pool must keep beating 4 threads."""

    def test_regression_fails_on_two_cpus(self):
        fresh = report(rows=1500, cpu_count=2, serve_1v4=0.7)
        failures = perf.compare(report(rows=1500), fresh, tolerance=0.35)
        assert any("serve_1v4 regressed" in f for f in failures)

    def test_skipped_on_single_cpu(self):
        fresh = report(cpu_count=1, serve_1v4=0.5)
        assert perf.compare(report(), fresh, tolerance=0.35) == []

    def test_enforcement_boundary(self):
        assert perf.serve_threads_enforced(report(cpu_count=2))
        assert not perf.serve_threads_enforced(report(cpu_count=1))


class TestCompare:
    def test_identical_reports_pass(self):
        assert perf.compare(report(), report()) == []

    def test_within_tolerance_passes(self):
        base = report()
        fresh = report(executor_vs_naive=12.0 * 0.75)
        assert perf.compare(base, fresh, tolerance=0.35) == []

    def test_regression_beyond_tolerance_fails(self):
        base = report()
        fresh = report(executor_vs_naive=12.0 * 0.5)
        failures = perf.compare(base, fresh, tolerance=0.35)
        assert any("executor_vs_naive regressed" in f for f in failures)

    def test_scaling_regression_fails_on_capable_hardware(self):
        base = report()
        fresh = report(scaling_4v1=1.5)
        failures = perf.compare(base, fresh, tolerance=0.35)
        assert any("scaling_4v1 regressed" in f for f in failures)

    def test_scaling_regression_skipped_on_single_cpu(self):
        base = report()
        fresh = report(cpu_count=1, scaling_4v1=0.4)
        assert perf.compare(base, fresh, tolerance=0.35) == []

    def test_missing_fresh_ratio_fails(self):
        base = report()
        fresh = report()
        del fresh["ratios"]["kernel_batch_vs_reference"]
        failures = perf.compare(base, fresh)
        assert any("missing ratio" in f for f in failures)

    def test_row_count_mismatch_fails(self):
        failures = perf.compare(report(rows=1500), report(rows=50_000))
        assert failures and "not comparable" in failures[0]

    def test_floors_also_apply_to_fresh(self):
        # compare() is the one gate CI calls; a fresh run that beats a
        # weak baseline but sits under an absolute floor still fails.
        base = report(executor_vs_naive=0.5)
        fresh = report(executor_vs_naive=0.6)
        failures = perf.compare(base, fresh)
        assert any("floor" in f for f in failures)


class TestCompareCli:
    def run_cli(self, tmp_path, baseline, fresh, *extra):
        bpath = tmp_path / "baseline.json"
        fpath = tmp_path / "fresh.json"
        bpath.write_text(json.dumps(baseline))
        fpath.write_text(json.dumps(fresh))
        return subprocess.run(
            [
                sys.executable,
                os.path.join(SCRIPTS, "perf_compare.py"),
                str(bpath),
                str(fpath),
                *extra,
            ],
            capture_output=True,
            text=True,
            cwd=REPO,
        )

    def test_cli_passes_healthy_run(self, tmp_path):
        result = self.run_cli(tmp_path, report(), report())
        assert result.returncode == 0, result.stdout + result.stderr
        assert "perf compare OK" in result.stdout

    def test_cli_fails_scaling_regression(self, tmp_path):
        result = self.run_cli(
            tmp_path, report(), report(scaling_4v1=0.7)
        )
        assert result.returncode == 1
        assert "must beat 1 worker" in result.stdout

    def test_cli_notes_skipped_serve_threads(self, tmp_path):
        result = self.run_cli(
            tmp_path, report(), report(cpu_count=1, serve_1v4=0.5)
        )
        assert result.returncode == 0, result.stdout + result.stderr
        assert "serve_1v4 recorded but not enforced" in result.stdout

    def test_cli_tolerance_flag(self, tmp_path):
        fresh = report(executor_vs_naive=12.0 * 0.55)
        strict = self.run_cli(tmp_path, report(), fresh)
        lax = self.run_cli(
            tmp_path, report(), fresh, "--tolerance", "0.5"
        )
        assert strict.returncode == 1
        assert lax.returncode == 0


class TestCommittedBaseline:
    """The baseline actually committed at the repo root is coherent."""

    @pytest.fixture()
    def baseline(self):
        with open(os.path.join(REPO, "BENCH_baseline.json")) as fh:
            return json.load(fh)

    def test_schema(self, baseline):
        assert baseline["rows"] == 1500
        assert baseline["scaling_workers"] == perf.SCALING_WORKERS
        for key in (
            "kernel_banded_vs_reference",
            "kernel_batch_vs_reference",
            "executor_vs_naive",
            "qgram_vs_naive",
            "verify_vs_scalar",
            "join_dp_reduction",
            f"scaling_{perf.SCALING_WORKERS}v1",
            perf.JOIN_POOL_KEY,
            perf.SERVE_THREADS_KEY,
        ):
            assert key in baseline["ratios"], key

    def test_baseline_clears_its_own_floors(self, baseline):
        # A baseline below the absolute floors would make every fresh
        # run fail check_floors regardless of trend — catch that drift.
        for key, floor in perf.SMOKE_FLOORS.items():
            assert baseline["ratios"][key] >= floor, key
