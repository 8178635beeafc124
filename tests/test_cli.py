"""Tests for the command-line interface."""

import pytest

from repro import obs
from repro.cli import main


@pytest.fixture(autouse=True)
def _reset_metrics():
    """stats/--explain enable the global registry; keep tests isolated."""
    yield
    obs.disable()


class TestMatchCommand:
    def test_match_true_exit_code(self, capsys):
        code = main(["match", "Nehru", "नेहरु"])
        assert code == 0
        out = capsys.readouterr().out
        assert "true" in out

    def test_match_false_exit_code(self, capsys):
        code = main(["match", "Nehru", "Smith"])
        assert code == 1

    def test_match_with_overrides(self, capsys):
        code = main(
            ["match", "Nehru", "Nero", "--threshold", "0.6", "--cost", "0.0"]
        )
        assert code == 0


class TestLexiconCommands:
    def test_lexicon_build_writes_tsv(self, tmp_path, capsys):
        out = tmp_path / "lex.tsv"
        code = main(["lexicon", "build", "--out", str(out)])
        assert code == 0
        assert out.exists()
        header = out.read_text(encoding="utf-8").splitlines()[0]
        assert header.startswith("tag\t")

    def test_search_against_tsv(self, tmp_path, capsys):
        out = tmp_path / "lex.tsv"
        main(["lexicon", "build", "--out", str(out)])
        code = main(["search", "Nehru", "--lexicon", str(out)])
        assert code == 0
        captured = capsys.readouterr()
        assert "नेह्रु" in captured.out or "Nehru" in captured.out

    def test_search_language_filter(self, tmp_path, capsys):
        out = tmp_path / "lex.tsv"
        main(["lexicon", "build", "--out", str(out)])
        capsys.readouterr()  # drain the build message
        main(
            [
                "search",
                "Nehru",
                "--lexicon",
                str(out),
                "--languages",
                "hindi",
            ]
        )
        captured = capsys.readouterr()
        for line in captured.out.splitlines():
            if line.strip():
                assert "hindi" in line


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])


class TestQueryCommand:
    def test_query_rows(self, capsys):
        code = main(
            ["query", "SELECT author, title FROM books WHERE price < 20"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "author\ttitle"
        assert "Nehru" in out

    def test_query_lexequal_analyze_plan(self, capsys):
        code = main(
            [
                "query",
                "SELECT author FROM books "
                "WHERE author LEXEQUAL 'Nehru' THRESHOLD 0.25",
                "--analyze",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "RowidScan on books via qgram accelerator" in out
        assert "actual rows=" in out
        assert "Execution time:" in out

    def test_query_unaccelerated_plan(self, capsys):
        code = main(
            [
                "query",
                "SELECT author FROM books "
                "WHERE author LEXEQUAL 'Nehru' THRESHOLD 0.25",
                "--explain",
                "--strategy",
                "none",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "SeqScan on books" in out
        assert "RowidScan" not in out


class TestStatsCommand:
    def test_stats_text(self, capsys):
        code = main(["stats"])
        assert code == 0
        out = capsys.readouterr().out
        assert "counters:" in out
        assert "matching.dp.calls" in out

    def test_stats_json(self, capsys):
        import json

        code = main(["stats", "--json"])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["enabled"] is True
        assert data["counters"]["minidb.plans.accelerated"] >= 1

    def test_search_explain_prints_metrics(self, capsys):
        code = main(["search", "Nehru", "--explain"])
        assert code == 0
        err = capsys.readouterr().err
        assert "counters:" in err
        assert "matching.dp.calls" in err


class TestAnalysisCommands:
    def test_sweep_with_limit(self, capsys):
        code = main(
            ["sweep", "--limit", "10", "--thresholds", "0.2,0.3",
             "--costs", "0.25"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Recall vs threshold" in out
        assert "Precision vs threshold" in out

    def test_autotune_with_limit(self, capsys):
        code = main(["autotune", "--limit", "10"])
        assert code == 0
        out = capsys.readouterr().out
        assert "best: threshold=" in out

    def test_dismissals_with_limit(self, capsys):
        code = main(["dismissals", "--limit", "10"])
        assert code == 0
        out = capsys.readouterr().out
        assert "phonetic index dismisses" in out
