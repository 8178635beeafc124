"""Tests for the ``serve`` / ``client`` CLI front-ends and error paths."""

import json
import socket

import pytest

from repro import obs
from repro.cli import main
from repro.server import BackgroundServer


@pytest.fixture(autouse=True)
def _reset_metrics():
    yield
    obs.disable()


@pytest.fixture(scope="module")
def server():
    with BackgroundServer() as bg:
        yield bg
    obs.disable()


def unused_port() -> int:
    """A port that was just free (nothing is listening on it)."""
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class TestClientCommand:
    def test_ping(self, server, capsys):
        code = main(
            ["client", "--port", str(server.port), "ping"]
        )
        assert code == 0
        assert capsys.readouterr().out.strip() == "pong"

    def test_query(self, server, capsys):
        code = main(
            [
                "client",
                "--port",
                str(server.port),
                "query",
                "SELECT author, title FROM books "
                "WHERE author LEXEQUAL 'Nehru' THRESHOLD 0.25",
            ]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert captured.out.splitlines()[0] == "author\ttitle"
        assert "नेहरु" in captured.out
        assert "-- 3 rows" in captured.err

    def test_lexequal_exit_codes(self, server, capsys):
        assert (
            main(
                ["client", "--port", str(server.port),
                 "lexequal", "Nehru", "नेहरु"]
            )
            == 0
        )
        assert "-> true" in capsys.readouterr().out
        assert (
            main(
                ["client", "--port", str(server.port),
                 "lexequal", "Nehru", "Smith"]
            )
            == 1
        )
        assert "-> false" in capsys.readouterr().out

    def test_stats_json(self, server, capsys):
        code = main(["client", "--port", str(server.port), "stats"])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["server"]["pool"]["max_inflight"] >= 1

    def test_connection_refused_one_line_diagnostic(self, capsys):
        code = main(
            ["client", "--port", str(unused_port()), "ping"]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert len(err.strip().splitlines()) == 1  # no traceback

    def test_sql_error_one_line_diagnostic(self, server, capsys):
        code = main(
            ["client", "--port", str(server.port), "query", "SELEKT x"]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: sql_error")
        assert len(err.strip().splitlines()) == 1


class TestServeCommand:
    def test_port_in_use_one_line_diagnostic(self, capsys):
        with socket.socket() as sock:
            sock.bind(("127.0.0.1", 0))
            sock.listen(1)
            port = sock.getsockname()[1]
            code = main(["serve", "--port", str(port)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cannot listen on")
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize(
        "flag, value",
        [("--workers", "0"), ("--max-inflight", "0"), ("--workers", "-3")],
    )
    def test_non_positive_pool_sizes_are_usage_errors(
        self, flag, value, capsys
    ):
        # Rejected while parsing, before any catalog or socket exists.
        with pytest.raises(SystemExit) as exc:
            main(["serve", "--port", str(unused_port()), flag, value])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.strip().splitlines()[-1].endswith(
            f"error: argument {flag}: must be >= 1, got {value}"
        )
