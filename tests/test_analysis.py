"""Tests for the domain-aware static-analysis pass (repro.analysis).

Two layers:

* seeded-violation fixtures — for every analyzer, a tiny fixture module
  (or registry) carrying exactly the class of bug the rule exists to
  catch, asserting the expected rule id fires;
* the repo itself — the full pass must run clean against this checkout
  with the shipped (empty) baseline, which is what CI enforces.
"""

from __future__ import annotations

import json
import textwrap

import pytest

from repro.analysis import (
    AnalysisContext,
    Finding,
    LintUsageError,
    Rule,
    apply_baseline,
    default_rules,
    lint,
    load_baseline,
    render_json,
    render_text,
    run_rules,
    save_baseline,
    select_rules,
)
from repro.analysis.astrules import (
    FailpointDrift,
    LockDiscipline,
    LockSpec,
    ManagedParallelism,
    MetricNames,
    OpDrift,
)
from repro.analysis.datarules import (
    ClusterPartition,
    IpaLiterals,
    MetricAxioms,
    ScriptCoverage,
    ScriptSpec,
    TableSpec,
    TtpShadowing,
)
from repro.matching.costs import ClusteredCost, LevenshteinCost
from repro.matching.metric import check_metric_axioms
from repro.phonetics.parse import all_symbols


def write_module(root, name: str, source: str) -> str:
    path = root / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source), encoding="utf-8")
    return name


def rule_ids(findings) -> set[str]:
    return {f.rule for f in findings}


# --------------------------------------------------------------- framework


class TestFramework:
    def test_finding_rejects_unknown_severity(self):
        with pytest.raises(ValueError, match="unknown severity"):
            Finding("LEX-X999", "a.py", 1, "boom", severity="fatal")

    def test_baseline_round_trip_ignores_lines(self, tmp_path):
        finding = Finding("LEX-D001", "src/x.py", 10, "bad IPA 'zz'")
        moved = Finding("LEX-D001", "src/x.py", 99, "bad IPA 'zz'")
        other = Finding("LEX-D001", "src/x.py", 10, "bad IPA 'qq'")
        path = tmp_path / "baseline.json"
        save_baseline(path, [finding])
        baseline = load_baseline(path)
        active, suppressed = apply_baseline([moved, other], baseline)
        assert suppressed == [moved]  # same key despite the line shift
        assert active == [other]

    def test_missing_baseline_suppresses_nothing(self, tmp_path):
        assert load_baseline(tmp_path / "absent.json") == set()

    def test_select_rules_unknown_token_raises(self):
        with pytest.raises(LintUsageError, match="unknown rule 'nope'"):
            select_rules(default_rules(), select=("nope",))

    def test_select_and_ignore_by_id_and_name(self):
        rules = default_rules()
        picked = select_rules(rules, select=("LEX-D003", "op-drift"))
        assert {r.rule_id for r in picked} == {"LEX-D003", "LEX-A001"}
        rest = select_rules(rules, ignore=("metric-axioms",))
        assert "LEX-D003" not in {r.rule_id for r in rest}

    def test_run_rules_captures_analyzer_crash(self):
        class Exploding(Rule):
            rule_id = "LEX-T001"
            name = "exploding"
            description = "always crashes"

            def run(self, ctx):
                raise RuntimeError("kaboom")

        findings = run_rules(AnalysisContext(), [Exploding()])
        assert len(findings) == 1
        assert findings[0].rule == "LEX-T001"
        assert "kaboom" in findings[0].message

    def test_reporters(self):
        finding = Finding("LEX-D001", "src/x.py", 3, "bad")
        text = render_text([finding], suppressed=1, rules_run=9)
        assert "src/x.py:3: LEX-D001 [error] bad" in text
        assert "1 baselined" in text
        doc = json.loads(
            render_json([finding], root="/r", rules=[{"id": "LEX-D001"}])
        )
        assert doc["findings"][0]["line"] == 3
        assert doc["version"] == 1


# --------------------------------------------------- seeded data violations


class TestSeededDataViolations:
    def test_bad_ipa_literal_fires_d001(self, tmp_path):
        mod = write_module(
            tmp_path,
            "fixture_tables.py",
            '''
            _VOWELS = {
                "अ": "a",
                "आ": "zz9",
            }
            ''',
        )
        rule = IpaLiterals(tables=(TableSpec(mod, "_VOWELS"),))
        findings = list(rule.run(AnalysisContext(tmp_path)))
        assert rule_ids(findings) == {"LEX-D001"}
        assert len(findings) == 1
        assert "'zz9'" in findings[0].message
        assert findings[0].file == mod
        assert findings[0].line == 4  # the offending literal's line

    def test_broken_partition_fires_d002(self, tmp_path):
        mod = write_module(
            tmp_path,
            "fixture_clusters.py",
            '''
            _CLUSTERS = (
                ("p", "b"),
                ("b", "m"),
                (),
                ("p2",),
            )
            ''',
        )
        rule = ClusterPartition(mod, "_CLUSTERS", check_default=False)
        findings = list(rule.run(AnalysisContext(tmp_path)))
        assert rule_ids(findings) == {"LEX-D002"}
        messages = "\n".join(f.message for f in findings)
        assert "'b' appears in both cluster #0 and cluster #1" in messages
        assert "cluster #2 is empty" in messages
        assert "non-inventory symbol 'p2'" in messages

    def test_broken_triangle_fires_d003(self):
        # Same-cluster vowels cost the full intra cost (1.0) while a
        # detour through a cross-cluster vowel costs 0.1 + 0.1.
        broken = ClusteredCost(
            intra_cluster_cost=1.0, vowel_cross_cost=0.1
        )
        rule = MetricAxioms(models=[("broken", broken)])
        findings = list(rule.run(AnalysisContext()))
        assert rule_ids(findings) == {"LEX-D003"}
        assert any("triangle" in f.message for f in findings)

    def test_shadowed_rule_fires_d004(self, tmp_path):
        mod = write_module(
            tmp_path,
            "fixture_rules.py",
            '''
            _RULES = [
                ("", "a", "", "a"),
                ("", "ar", "", "ar"),
                ("", "b", "#", "b"),
                ("", "b", "#", "b"),
                ("", "c", "", "k"),
            ]
            ''',
        )
        rule = TtpShadowing(tables=((mod, "_RULES"),))
        findings = list(rule.run(AnalysisContext(tmp_path)))
        assert rule_ids(findings) == {"LEX-D004"}
        messages = "\n".join(f.message for f in findings)
        assert "unreachable" in messages  # 'ar' behind unconditional 'a'
        assert "duplicates the rule" in messages  # second 'b' row
        assert len(findings) == 2

    def test_coverage_gap_fires_d005(self, tmp_path):
        mod = write_module(tmp_path, "fixture_english.py", "X = 1\n")
        # The English converter has no rule for U+00DF (ß); declaring
        # it in the coverage range must surface the gap.
        spec = ScriptSpec("english", mod, ((0xDF, 0xDF, "{}"),))
        rule = ScriptCoverage(scripts=(spec,))
        findings = list(rule.run(AnalysisContext(tmp_path)))
        assert rule_ids(findings) == {"LEX-D005"}
        assert "U+00DF" in findings[0].message


# ---------------------------------------------------- seeded AST violations


class TestSeededAstViolations:
    def test_op_set_drift_fires_a001(self, tmp_path):
        write_module(
            tmp_path, "proto.py", 'OPS = ("ping", "query", "ghost")\n'
        )
        write_module(
            tmp_path,
            "app.py",
            '''
            class Server:
                async def _dispatch(self, session, request):
                    op = request["op"]
                    if op == "ping":
                        return "pong"
                    if op == "query":
                        return self.run(request)
                    if op == "undeclared":
                        return None
            ''',
        )
        write_module(
            tmp_path,
            "client.py",
            'RETRYABLE_OPS = frozenset({"ping", "flush"})\n',
        )
        (tmp_path / "DESIGN.md").write_text(
            "## 7. Protocol\n\n| `ping` | `query` |\n", encoding="utf-8"
        )
        rule = OpDrift(
            protocol_file="proto.py",
            server_file="app.py",
            client_file="client.py",
            design_file="DESIGN.md",
        )
        findings = list(rule.run(AnalysisContext(tmp_path)))
        assert rule_ids(findings) == {"LEX-A001"}
        messages = "\n".join(f.message for f in findings)
        # retryable op the server never dispatches
        assert "'flush'" in messages
        # dispatched op missing from OPS
        assert "'undeclared'" in messages
        # declared op never dispatched, and undocumented in §7
        assert "'ghost'" in messages
        assert "not documented" in messages

    def test_failpoint_drift_fires_a002(self, tmp_path):
        fp = write_module(
            tmp_path,
            "fp.py",
            'FAILPOINTS = frozenset({"known.point", "stale.point"})\n',
        )
        write_module(
            tmp_path,
            "pkg/mod.py",
            '''
            from repro import faults

            def work():
                faults.fire("known.point")
                faults.fire("unregistered.point")
            ''',
        )
        rule = FailpointDrift(faults_file=fp, subdir="pkg")
        findings = list(rule.run(AnalysisContext(tmp_path)))
        assert rule_ids(findings) == {"LEX-A002"}
        messages = "\n".join(f.message for f in findings)
        assert "'unregistered.point'" in messages  # fired, unregistered
        assert "'stale.point'" in messages  # registered, never fired

    def test_metric_name_drift_fires_a003(self, tmp_path):
        write_module(
            tmp_path,
            "pkg/mod.py",
            '''
            from repro import obs

            def work(n):
                obs.incr("server.request")
                obs.incr("server.requests")
                obs.incr("warpdrive.engaged")
                obs.incr("server.Bad-Segment")
            ''',
        )
        rule = MetricNames(subdir="pkg")
        findings = list(rule.run(AnalysisContext(tmp_path)))
        assert rule_ids(findings) == {"LEX-A003"}
        messages = "\n".join(f.message for f in findings)
        assert "nearly duplicates" in messages
        assert "unknown domain 'warpdrive'" in messages
        assert "'Bad-Segment'" in messages

    def test_metric_domain_ann_is_known_a003(self, tmp_path):
        # The embedding prefilter's counters live under "ann.*"; the
        # domain is registered, but near-misses still need declaring.
        write_module(
            tmp_path,
            "pkg/mod.py",
            '''
            from repro import obs

            def work():
                obs.incr("ann.prefilter.queries")
                obs.incr("ann.prefilter.candidates")
                obs.incr("annex.queries")
            ''',
        )
        rule = MetricNames(subdir="pkg")
        findings = list(rule.run(AnalysisContext(tmp_path)))
        assert rule_ids(findings) == {"LEX-A003"}
        messages = "\n".join(f.message for f in findings)
        assert "unknown domain 'ann'" not in messages
        assert "unknown domain 'annex'" in messages

    def test_unlocked_mutation_fires_a004(self, tmp_path):
        mod = write_module(
            tmp_path,
            "box.py",
            '''
            import threading

            class Box:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._items = []
                    self._count = 0

                def bad_append(self, x):
                    self._items.append(x)

                def bad_count(self):
                    self._count += 1

                def good(self, x):
                    with self._lock:
                        self._items.append(x)
                        self._count += 1
                        self._items[0] = x
            ''',
        )
        rule = LockDiscipline(
            locks=(LockSpec(mod, "Box", "_lock", ("_items", "_count")),)
        )
        findings = list(rule.run(AnalysisContext(tmp_path)))
        assert rule_ids(findings) == {"LEX-A004"}
        assert len(findings) == 2
        messages = "\n".join(f.message for f in findings)
        assert "Box.bad_append: self._items" in messages
        assert "Box.bad_count: self._count" in messages

    def test_unmanaged_parallelism_fires_a005(self, tmp_path):
        write_module(
            tmp_path,
            "pkg/rogue.py",
            """
            import os
            import multiprocessing
            from multiprocessing import Pool
            from concurrent.futures import ProcessPoolExecutor

            def run():
                os.fork()
                return multiprocessing.get_context("spawn")
            """,
        )
        write_module(
            tmp_path,
            "pkg/parallel/executor.py",
            """
            import multiprocessing
            from multiprocessing import shared_memory
            """,
        )
        rule = ManagedParallelism(
            subdir="pkg", allowed=("pkg/parallel",)
        )
        findings = list(rule.run(AnalysisContext(tmp_path)))
        assert rule_ids(findings) == {"LEX-A005"}
        messages = "\n".join(f.message for f in findings)
        assert "import of 'multiprocessing'" in messages
        assert "import from 'multiprocessing' (Pool)" in messages
        assert "ProcessPoolExecutor" in messages
        assert "os.fork()" in messages
        assert len(findings) == 4  # allowed package produced none
        assert all(f.file == "pkg/rogue.py" for f in findings)
        assert all("ParallelMatchExecutor" in f.message for f in findings)

    def test_storage_boundary_fires_a006(self, tmp_path):
        from repro.analysis.astrules import StorageBoundary

        write_module(
            tmp_path,
            "pkg/rogue.py",
            '''
            """Mentioning wal.log in a docstring is fine."""
            from repro.storage.layout import wal_path
            from repro.storage.wal import WriteAheadLog
            import repro.storage.layout

            def sneak(data_dir):
                with open(data_dir + "/wal.log", "ab") as fh:
                    fh.write(b"x")
                return data_dir + "/books.idx"
            ''',
        )
        write_module(
            tmp_path,
            "pkg/storage/manager.py",
            """
            from repro.storage.layout import wal_path

            WAL = "wal.log"
            """,
        )
        write_module(
            tmp_path,
            "pkg/fine.py",
            """
            from repro.storage import open_database
            from repro.storage.manager import MemoryBackend
            from repro.storage.snapshots import restore_btree
            """,
        )
        rule = StorageBoundary(subdir="pkg", allowed=("pkg/storage",))
        findings = list(rule.run(AnalysisContext(tmp_path)))
        assert rule_ids(findings) == {"LEX-A006"}
        messages = "\n".join(f.message for f in findings)
        assert "'repro.storage.layout'" in messages
        assert "'repro.storage.wal'" in messages
        assert "'/wal.log'" in messages
        assert "'/books.idx'" in messages
        # 3 imports + 2 literals; allowed package and the public
        # interface (manager/snapshots/open_database) produced none.
        assert len(findings) == 5
        assert all(f.file == "pkg/rogue.py" for f in findings)
        assert all("StorageManager" in f.message for f in findings)

    def test_storage_boundary_covers_ann_sidecar_a006(self, tmp_path):
        # The embedding-index sidecar suffix (.ann) is part of the
        # on-disk contract: its file names belong to repro.storage
        # alone, exactly like .idx artifacts.
        from repro.analysis.astrules import StorageBoundary

        write_module(
            tmp_path,
            "pkg/rogue.py",
            '''
            def sneak(data_dir):
                return data_dir + "/accel_books_author.ann"
            ''',
        )
        write_module(
            tmp_path,
            "pkg/storage/layout.py",
            """
            ANN_INDEX_SUFFIX = ".ann"
            NAME = "accel_books_author.ann"
            """,
        )
        rule = StorageBoundary(subdir="pkg", allowed=("pkg/storage",))
        findings = list(rule.run(AnalysisContext(tmp_path)))
        assert rule_ids(findings) == {"LEX-A006"}
        assert len(findings) == 1
        assert "'/accel_books_author.ann'" in findings[0].message
        assert findings[0].file == "pkg/rogue.py"


# ------------------------------------------------- metric validation API


class TestMetricValidation:
    def test_default_clustered_cost_is_a_metric(self):
        assert check_metric_axioms(ClusteredCost(), all_symbols()) == []

    def test_levenshtein_is_a_metric(self):
        assert check_metric_axioms(LevenshteinCost()) == []

    def test_checker_flags_broken_model(self):
        broken = ClusteredCost(
            intra_cluster_cost=1.0, vowel_cross_cost=0.1
        )
        violations = check_metric_axioms(broken)
        assert violations and violations[0].axiom == "triangle"

    def test_checker_flags_strong_delete_through_weak_cluster_mate(self):
        # Deleting a strong vowel costs 1.0, but substituting it by its
        # weak cluster-mate (0.25) and deleting that (0.5) costs 0.75:
        # d((), ("a",)) = 1.0 > 0.25 + 0.5.
        violations = check_metric_axioms(ClusteredCost(0.25), ["a", "ə"])
        assert [(v.axiom, v.symbols) for v in violations] == [
            ("triangle", ("a", "ə"))
        ]
        assert "delete(a)=1 > substitute(a, b) + delete(b)=0.75" in (
            violations[0].detail
        )


# ----------------------------------------------------- the repo lints clean


class TestRepoIsClean:
    def test_full_pass_is_clean(self):
        result = lint()
        assert result.clean, render_text(result.findings)
        # The shipped baseline is empty: nothing is being tolerated.
        assert result.suppressed == []
        assert len(result.rules) == 16

    def test_cli_lint_smoke(self, capsys):
        from repro.cli import main

        assert main(["lint", "--select", "op-drift,failpoint-drift"]) == 0
        assert "0 finding(s)" in capsys.readouterr().out
        assert main(["lint", "--list-rules"]) == 0
        assert main(["lint", "--select", "bogus"]) == 2

    def test_cli_lint_json_output(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "lint.json"
        code = main(
            [
                "lint",
                "--format",
                "json",
                "--select",
                "LEX-A001",
                "--output",
                str(out),
            ]
        )
        assert code == 0
        doc = json.loads(out.read_text(encoding="utf-8"))
        assert doc["findings"] == []
        assert doc["rules"][0]["id"] == "LEX-A001"
        capsys.readouterr()
