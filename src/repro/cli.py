"""Command-line interface: ``lexequal <command> ...``.

Commands:

``match LEFT RIGHT [--threshold E] [--cost C]``
    Compare two names (languages detected from script) and explain the
    outcome.

``search QUERY [--lexicon PATH] [--threshold E] [--languages a,b]``
    LexEQUAL selection over the bundled (or a TSV) lexicon.

``lexicon build [--out PATH]``
    Build the tagged multiscript lexicon and write it as TSV.

``sweep [--thresholds ...] [--costs ...]``
    Run the Figure 11 quality sweep and print the series.

``autotune``
    Grid-search matching parameters on the bundled lexicon.

``dismissals``
    Measure the phonetic index's false-dismissal rate (Section 5.3).

``query SQL [--explain | --analyze] [--strategy METHOD] [--data-dir D]``
    Run SQL (including the paper's LexEQUAL predicates) against the
    bundled Books.com demo catalog, or — with ``--data-dir`` — against a
    durable database created by ``init``; ``--explain``/``--analyze``
    print the query plan instead of rows.

``init --data-dir D [--rows N] [--strategy METHOD]``
    Create a durable database directory (``repro.storage`` file
    backend): the Books.com demo catalog plus, with ``--rows N``, a
    seeded ``names`` lexicon; registers the phonetic accelerator, runs
    ``ANALYZE``, and checkpoints so later opens attach the persisted
    indexes instead of rebuilding them.

``stats [--json]``
    Run a representative matching workload with metrics enabled and
    print the collected counters/timers/histograms.

``lint [--format text|json] [--select RULES] [--ignore RULES]``
    Run the domain-aware static-analysis pass (``repro.analysis``) over
    the repository: phonetic-table IPA literals, cluster partition,
    metric axioms, rule-table reachability, script coverage, and the
    cross-layer op/failpoint/metric/lock registries.  Exit code 0 when
    clean, 1 on findings, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import sys

from repro.core.config import MatchConfig
from repro.core.engine import METHODS
from repro.core.matcher import LexEqualMatcher
from repro.errors import ReproError

#: ``--strategy`` values: every accelerator method, or plain UDF
#: evaluation.
STRATEGY_CHOICES = (*METHODS, "none")


def _parse_floats(text: str) -> list[float]:
    return [float(part) for part in text.split(",") if part]


def _positive_int(text: str) -> int:
    """argparse type: an integer >= 1 (a usage error otherwise)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid int value: {text!r}"
        ) from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _config_from_args(args: argparse.Namespace) -> MatchConfig:
    kwargs = {}
    if getattr(args, "threshold", None) is not None:
        kwargs["threshold"] = args.threshold
    if getattr(args, "cost", None) is not None:
        kwargs["intra_cluster_cost"] = args.cost
    return MatchConfig(**kwargs)


def cmd_match(args: argparse.Namespace) -> int:
    matcher = LexEqualMatcher(_config_from_args(args))
    explanation = matcher.explain(args.left, args.right)
    print(explanation)
    return 0 if explanation.outcome.value == "true" else 1


def cmd_search(args: argparse.Namespace) -> int:
    from repro.data.lexicon import MultiscriptLexicon, default_lexicon

    if getattr(args, "explain", False):
        from repro import obs

        obs.enable()
    matcher = LexEqualMatcher(_config_from_args(args))
    if args.lexicon:
        lexicon = MultiscriptLexicon.load_tsv(args.lexicon)
    else:
        lexicon = default_lexicon()
    languages = tuple(
        lang for lang in (args.languages or "").split(",") if lang
    )
    query_phonemes = matcher.phonemes(args.query)
    shown = 0
    for entry in lexicon:
        if languages and entry.language not in languages:
            continue
        from repro.phonetics.parse import parse_ipa

        if matcher.phonemes_match(query_phonemes, parse_ipa(entry.ipa)):
            print(f"{entry.name}\t{entry.language}\t[{entry.ipa}]")
            shown += 1
    print(f"-- {shown} matches", file=sys.stderr)
    if getattr(args, "explain", False):
        from repro import obs

        print(obs.format_snapshot(), file=sys.stderr)
    return 0


def cmd_lexicon_build(args: argparse.Namespace) -> int:
    from repro.data.lexicon import build_lexicon

    lexicon = build_lexicon()
    lexicon.save_tsv(args.out)
    lex_len, pho_len = lexicon.average_lengths()
    print(
        f"wrote {len(lexicon)} entries to {args.out} "
        f"(avg lengths: {lex_len:.2f} lexicographic, {pho_len:.2f} phonemic)"
    )
    return 0


def _lexicon_for(args: argparse.Namespace):
    from repro.data.lexicon import build_lexicon, default_lexicon

    limit = getattr(args, "limit", None)
    if limit:
        return build_lexicon(limit_per_domain=limit)
    return default_lexicon()


def cmd_sweep(args: argparse.Namespace) -> int:
    from repro.evaluation.quality import sweep_quality
    from repro.evaluation.report import format_series

    thresholds = _parse_floats(args.thresholds)
    costs = _parse_floats(args.costs)
    points = sweep_quality(_lexicon_for(args), thresholds, costs)
    recall_series: dict[str, list[tuple[float, float]]] = {}
    precision_series: dict[str, list[tuple[float, float]]] = {}
    for point in points:
        label = f"cost={point.intra_cluster_cost:g}"
        recall_series.setdefault(label, []).append(
            (point.threshold, point.recall)
        )
        precision_series.setdefault(label, []).append(
            (point.threshold, point.precision)
        )
    print(format_series("Recall vs threshold", "e", recall_series))
    print()
    print(format_series("Precision vs threshold", "e", precision_series))
    return 0


def cmd_autotune(args: argparse.Namespace) -> int:
    from repro.evaluation.autotune import autotune

    result = autotune(_lexicon_for(args))
    best = result.best
    print(
        f"best: threshold={best.threshold:g} "
        f"intra_cluster_cost={best.intra_cluster_cost:g} "
        f"recall={best.recall:.3f} precision={best.precision:.3f}"
    )
    return 0


def cmd_dismissals(args: argparse.Namespace) -> int:
    from repro.evaluation.quality import phonetic_index_dismissals

    config = _config_from_args(args)
    dismissed, reported, rate = phonetic_index_dismissals(
        _lexicon_for(args), config
    )
    print(
        f"phonetic index dismisses {dismissed} of {reported} "
        f"true matches ({rate:.1%})"
    )
    return 0


def _demo_books_db(strategy: str = "none", workers: int | None = None):
    from repro.core.integration import demo_books_db

    return demo_books_db(strategy, workers=workers)


def _resolve_strategy(
    args: argparse.Namespace, default: str = "qgram"
) -> str:
    """``--strategy``, or ``default`` when it was not given."""
    strategy = getattr(args, "strategy", None)
    return strategy if strategy is not None else default


def _open_data_dir(args: argparse.Namespace):
    from repro.storage import open_database

    return open_database(
        args.data_dir, matcher=LexEqualMatcher(_config_from_args(args))
    )


def cmd_query(args: argparse.Namespace) -> int:
    if getattr(args, "data_dir", None):
        if args.strategy:
            print(
                "warning: --strategy ignored with "
                "--data-dir (the persisted accelerator configuration "
                "applies; re-run `lexequal init` to change it)",
                file=sys.stderr,
            )
        db = _open_data_dir(args)
    else:
        db = _demo_books_db(
            _resolve_strategy(args), getattr(args, "workers", None)
        )
    if args.explain or args.analyze:
        print(db.explain(args.sql, analyze=args.analyze))
        return 0
    result = db.execute(args.sql)
    if result.columns:
        print("\t".join(result.columns))
    for row in result.rows:
        print("\t".join("NULL" if v is None else str(v) for v in row))
    print(f"-- {len(result.rows)} rows", file=sys.stderr)
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    from repro import obs

    obs.enable().reset()
    # Representative workload: the paper's Figure 3 selection, once
    # accelerated (q-gram filters + batch verifier) and once as a full scan,
    # plus a direct matcher comparison.
    matcher = LexEqualMatcher()
    matcher.match("Nehru", "नेहरु")
    db = _demo_books_db("qgram")
    query = (
        "SELECT author, title FROM books "
        "WHERE author LEXEQUAL 'Nehru' THRESHOLD 0.25"
    )
    db.execute(query)
    db.execute(query + " INLANGUAGES { english, hindi, tamil, greek }")
    plain = _demo_books_db("none")
    plain.execute(query)
    data = obs.snapshot()
    if args.json:
        import json

        print(json.dumps(data, indent=2, sort_keys=True))
    else:
        print(obs.format_snapshot(data))
    return 0


def cmd_init(args: argparse.Namespace) -> int:
    """Create a durable database directory (see module docstring)."""
    import time

    from repro.core.engine import create_phonetic_accelerator
    from repro.core.integration import install_lexequal, populate_books_demo
    from repro.storage import open_database

    matcher = LexEqualMatcher(_config_from_args(args))
    start = time.perf_counter()
    # sync=False during the bulk load: one checkpoint at the end makes
    # the result durable without an fsync per WAL commit.
    db = open_database(args.data_dir, matcher=matcher, sync=False)
    if db.table_names():
        print(
            f"error: {args.data_dir} already holds tables "
            f"({', '.join(db.table_names())}); point --data-dir at a "
            "new path",
            file=sys.stderr,
        )
        db.storage.close()
        return 1
    strategy = _resolve_strategy(args, default="auto")
    install_lexequal(db, matcher)
    with db.transaction():
        populate_books_demo(db)
    if strategy != "none":
        create_phonetic_accelerator(
            db, "books", "author", matcher,
            method=strategy, workers=getattr(args, "workers", None),
        )
    if args.rows:
        from repro.data.generator import generate_performance_dataset
        from repro.data.lexicon import build_lexicon
        from repro.minidb.schema import Column
        from repro.minidb.values import LangText, SqlType

        db.create_table(
            "names",
            [
                Column("id", SqlType.INTEGER, nullable=False),
                Column("name", SqlType.LANGTEXT, nullable=False),
                Column("language", SqlType.TEXT, nullable=False),
            ],
        )
        with db.transaction():
            for i, item in enumerate(
                generate_performance_dataset(build_lexicon(), args.rows)
            ):
                db.insert(
                    "names",
                    (i, LangText(item.name, item.language), item.language),
                )
        if strategy != "none":
            create_phonetic_accelerator(
                db, "names", "name", matcher,
                method=strategy, workers=getattr(args, "workers", None),
            )
    db.analyze()
    db.checkpoint()
    elapsed = time.perf_counter() - start
    total = sum(len(db.table(name)) for name in db.table_names())
    print(
        f"initialised {args.data_dir}: "
        f"{len(db.table_names())} tables, {total} rows, "
        f"strategy={strategy}, analyzed + checkpointed "
        f"in {elapsed:.1f}s"
    )
    db.storage.close()
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    import os

    from repro.core.integration import demo_books_db
    from repro.server.app import serve
    from repro.server.service import QueryService

    matcher = LexEqualMatcher(_config_from_args(args))
    if getattr(args, "data_dir", None):
        service_db = _open_data_dir(args)
        meta = getattr(service_db.storage, "accelerator_meta", lambda: [])()
        strategy = ",".join(sorted({e["method"] for e in meta})) or "none"
    else:
        strategy = _resolve_strategy(args)
        service_db = demo_books_db(strategy, matcher)
    service = QueryService(service_db, matcher, strategy=strategy)

    def ready(host: str, port: int) -> None:
        print(f"listening on {host}:{port}", flush=True)

    fault_injection = args.fault_injection or bool(
        os.environ.get("REPRO_FAULT_OPS")
    )
    try:
        serve(
            service,
            args.host,
            args.port,
            ready=ready,
            max_workers=args.workers,
            max_inflight=args.max_inflight,
            request_timeout=args.request_timeout,
            drain_timeout=args.drain_timeout,
            fault_injection=fault_injection,
        )
    except OSError as exc:  # e.g. port already bound
        print(
            f"error: cannot listen on {args.host}:{args.port}: {exc}",
            file=sys.stderr,
        )
        return 1
    print("server drained and stopped", flush=True)
    return 0


def cmd_client(args: argparse.Namespace) -> int:
    """One-shot client requests against a running ``serve`` instance.

    All failure modes (connection refused, protocol violations, error
    responses) print a one-line ``error: ...`` diagnostic and exit
    nonzero — they raise ``ReproError`` subclasses that :func:`main`
    formats, matching the CLI's no-traceback convention.
    """
    import json

    from repro.server.client import LexEqualClient
    from repro.server.resilience import RetryPolicy

    retry = (
        RetryPolicy(max_attempts=args.retries + 1)
        if args.retries > 0
        else None
    )
    with LexEqualClient(
        args.host, args.port, timeout=args.timeout, retry=retry
    ) as client:
        op = args.client_op
        if op == "ping":
            print(client.ping())
            return 0
        if op == "query":
            result = client.query(args.sql)
            if "columns" in result:
                print("\t".join(result["columns"]))
                for row in result["rows"]:
                    print(
                        "\t".join(
                            "NULL" if v is None else _render_value(v)
                            for v in row
                        )
                    )
            print(f"-- {result['row_count']} rows", file=sys.stderr)
            _warn_degraded(result)
            return 0
        if op == "lexequal":
            result = client.lexequal(
                args.left,
                args.right,
                threshold=args.threshold,
                languages=args.languages or "",
            )
            print(
                f"{args.left} [{result['left_ipa']}] vs "
                f"{args.right} [{result['right_ipa']}]: "
                f"distance={result['distance']} "
                f"budget={result['budget']} -> {result['outcome']}"
            )
            _warn_degraded(result)
            return 0 if result["outcome"] == "true" else 1
        if op == "stats":
            print(json.dumps(client.stats(), indent=2, sort_keys=True))
            return 0
        if op == "health":
            result = client.health()
            print(json.dumps(result, indent=2, sort_keys=True))
            return 0 if result.get("status") == "ok" else 1
    raise AssertionError(f"unhandled client op {op!r}")  # pragma: no cover


def _warn_degraded(result: dict) -> None:
    """Surface a degraded (partial) server answer on stderr."""
    if result.get("degraded"):
        languages = ", ".join(result.get("failed_languages", ()))
        cause = (
            f"language(s) unavailable: {languages}"
            if languages
            else "cause unknown"
        )
        print(f"-- degraded result: {cause}", file=sys.stderr)


def _render_value(value) -> str:
    """Row value → display text (tagged LangText objects show the text)."""
    if isinstance(value, dict) and "text" in value:
        return str(value["text"])
    return str(value)


def cmd_lint(args: argparse.Namespace) -> int:
    from repro.analysis import (
        LintUsageError,
        default_rules,
        lint,
        render_json,
        render_text,
        save_baseline,
    )

    if args.list_rules:
        for rule in default_rules():
            print(f"{rule.rule_id}  {rule.name:18s} {rule.description}")
        return 0
    select = tuple(
        token for part in args.select for token in part.split(",") if token
    )
    ignore = tuple(
        token for part in args.ignore for token in part.split(",") if token
    )
    if args.concurrency:
        select = select + tuple(
            rule.rule_id
            for rule in default_rules()
            if rule.rule_id.startswith("LEX-C")
        )
    try:
        result = lint(
            args.root,
            select=select,
            ignore=ignore,
            baseline_path=args.baseline,
        )
    except LintUsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if result.internal_errors:
        # An analyzer crashed: nothing it covers was actually checked.
        # Refuse to bake the crash into a baseline and exit with the
        # infrastructure-failure code so CI distinguishes "lint found
        # problems" (1) from "lint itself is broken" (2).
        for finding in result.internal_errors:
            print(f"internal error: {finding.message}", file=sys.stderr)
        return 2
    if args.write_baseline:
        from repro.analysis import BASELINE_FILENAME

        path = args.baseline or (
            f"{result.root}/{BASELINE_FILENAME}"
        )
        save_baseline(path, result.findings + result.suppressed)
        print(
            f"wrote baseline suppressing "
            f"{len(result.findings) + len(result.suppressed)} finding(s) "
            f"to {path}"
        )
        return 0
    if args.format == "json":
        rendered = render_json(
            result.findings,
            root=result.root,
            rules=result.rule_meta(),
            suppressed=result.suppressed,
        )
    else:
        rendered = render_text(
            result.findings,
            suppressed=len(result.suppressed),
            rules_run=len(result.rules),
        )
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(rendered + "\n")
    else:
        print(rendered)
    return 0 if result.clean else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lexequal",
        description="LexEQUAL multiscript phonetic matching (EDBT 2004)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_match = sub.add_parser("match", help="compare two names")
    p_match.add_argument("left")
    p_match.add_argument("right")
    p_match.add_argument("--threshold", type=float)
    p_match.add_argument("--cost", type=float)
    p_match.set_defaults(func=cmd_match)

    p_search = sub.add_parser("search", help="search the lexicon")
    p_search.add_argument("query")
    p_search.add_argument("--lexicon", help="TSV lexicon path")
    p_search.add_argument("--threshold", type=float)
    p_search.add_argument("--cost", type=float)
    p_search.add_argument("--languages", help="comma-separated filter")
    p_search.add_argument(
        "--explain",
        action="store_true",
        help="print collected metrics to stderr after the search",
    )
    p_search.set_defaults(func=cmd_search)

    p_query = sub.add_parser(
        "query", help="run SQL against the demo Books.com catalog"
    )
    p_query.add_argument("sql")
    p_query.add_argument(
        "--explain", action="store_true", help="print the query plan"
    )
    p_query.add_argument(
        "--analyze",
        action="store_true",
        help="execute and print the plan with actual row counts/timings",
    )
    p_query.add_argument(
        "--strategy",
        choices=STRATEGY_CHOICES,
        help="execution strategy for books.author (default: qgram; "
        "'auto' = cost-based per-query choice)",
    )
    p_query.add_argument(
        "--workers",
        type=int,
        help="process-pool size for --strategy parallel "
        "(default: CPU count)",
    )
    p_query.add_argument(
        "--data-dir",
        help="run against a durable database created by `lexequal "
        "init` instead of the in-memory demo catalog",
    )
    p_query.set_defaults(func=cmd_query)

    p_init = sub.add_parser(
        "init",
        help="create a durable database directory (repro.storage)",
    )
    p_init.add_argument(
        "--data-dir", required=True, help="directory to initialise"
    )
    p_init.add_argument(
        "--rows",
        type=int,
        help="also seed a generated multiscript `names` lexicon of "
        "this size (paper scale: 200000)",
    )
    p_init.add_argument(
        "--strategy",
        choices=STRATEGY_CHOICES,
        help="persisted accelerator method (default: auto)",
    )
    p_init.add_argument(
        "--workers", type=int, help="pool size for strategy 'parallel'"
    )
    p_init.add_argument("--threshold", type=float)
    p_init.add_argument("--cost", type=float)
    p_init.set_defaults(func=cmd_init)

    p_stats = sub.add_parser(
        "stats", help="run a demo workload and print collected metrics"
    )
    p_stats.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )
    p_stats.set_defaults(func=cmd_stats)

    p_serve = sub.add_parser(
        "serve", help="run the concurrent query server (NDJSON over TCP)"
    )
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument(
        "--port", type=int, default=2004,
        help="TCP port; 0 picks an ephemeral port (default: 2004)",
    )
    p_serve.add_argument(
        "--workers", type=_positive_int, default=4,
        help="CPU worker threads (default: 4)",
    )
    p_serve.add_argument(
        "--max-inflight", type=_positive_int, default=32,
        help="backpressure: max admitted requests (default: 32)",
    )
    p_serve.add_argument(
        "--request-timeout", type=float, default=30.0,
        help="per-request timeout in seconds, 0 disables (default: 30)",
    )
    p_serve.add_argument(
        "--drain-timeout", type=float, default=10.0,
        help="max seconds to drain in-flight requests on shutdown",
    )
    p_serve.add_argument(
        "--strategy",
        choices=STRATEGY_CHOICES,
        help="phonetic accelerator for books.author (default: qgram; "
        "'auto' = cost-based per-query choice)",
    )
    p_serve.add_argument(
        "--data-dir",
        help="serve a durable database created by `lexequal init` "
        "instead of the in-memory demo catalog",
    )
    p_serve.add_argument(
        "--fault-injection",
        action="store_true",
        help="allow the remote 'faults' op to drive fault-injection "
        "failpoints (chaos testing; also enabled by REPRO_FAULT_OPS=1)",
    )
    p_serve.add_argument("--threshold", type=float)
    p_serve.add_argument("--cost", type=float)
    p_serve.set_defaults(func=cmd_serve)

    p_client = sub.add_parser(
        "client", help="send one request to a running server"
    )
    p_client.add_argument("--host", default="127.0.0.1")
    p_client.add_argument("--port", type=int, default=2004)
    p_client.add_argument(
        "--timeout", type=float, default=60.0,
        help="socket timeout in seconds (default: 60)",
    )
    p_client.add_argument(
        "--retries", type=int, default=0,
        help="max retries for idempotent ops on transport failure "
        "(exponential backoff + jitter; default: 0)",
    )
    client_sub = p_client.add_subparsers(dest="client_op", required=True)
    client_sub.add_parser("ping", help="liveness check")
    pc_query = client_sub.add_parser("query", help="run SQL remotely")
    pc_query.add_argument("sql")
    pc_lex = client_sub.add_parser(
        "lexequal", help="one LexEQUAL comparison"
    )
    pc_lex.add_argument("left")
    pc_lex.add_argument("right")
    pc_lex.add_argument("--threshold", type=float)
    pc_lex.add_argument("--languages", help="comma-separated restriction")
    client_sub.add_parser("stats", help="server + engine metrics (JSON)")
    client_sub.add_parser(
        "health",
        help="liveness/readiness probe (exit 0 only when status is ok)",
    )
    p_client.set_defaults(func=cmd_client)

    p_lex = sub.add_parser("lexicon", help="lexicon utilities")
    lex_sub = p_lex.add_subparsers(dest="subcommand", required=True)
    p_build = lex_sub.add_parser("build", help="build and save as TSV")
    p_build.add_argument("--out", default="lexicon.tsv")
    p_build.set_defaults(func=cmd_lexicon_build)

    p_sweep = sub.add_parser("sweep", help="Figure 11 quality sweep")
    p_sweep.add_argument(
        "--thresholds", default="0.1,0.2,0.25,0.3,0.35,0.4,0.5"
    )
    p_sweep.add_argument("--costs", default="0,0.25,0.5,1")
    p_sweep.add_argument(
        "--limit", type=int, help="names per domain (smaller = faster)"
    )
    p_sweep.set_defaults(func=cmd_sweep)

    p_tune = sub.add_parser("autotune", help="grid-search parameters")
    p_tune.add_argument(
        "--limit", type=int, help="names per domain (smaller = faster)"
    )
    p_tune.set_defaults(func=cmd_autotune)

    p_dis = sub.add_parser(
        "dismissals", help="phonetic index false-dismissal rate"
    )
    p_dis.add_argument("--threshold", type=float)
    p_dis.add_argument("--cost", type=float)
    p_dis.add_argument(
        "--limit", type=int, help="names per domain (smaller = faster)"
    )
    p_dis.set_defaults(func=cmd_dismissals)

    p_lint = sub.add_parser(
        "lint", help="domain-aware static analysis (repro.analysis)"
    )
    p_lint.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format (default: text)",
    )
    p_lint.add_argument(
        "--select",
        action="append",
        default=[],
        metavar="RULES",
        help="run only these rules (ids or names, comma-separated; "
        "repeatable)",
    )
    p_lint.add_argument(
        "--ignore",
        action="append",
        default=[],
        metavar="RULES",
        help="skip these rules (ids or names, comma-separated; "
        "repeatable)",
    )
    p_lint.add_argument(
        "--concurrency",
        action="store_true",
        help="run only the LEX-C concurrency rule family",
    )
    p_lint.add_argument(
        "--baseline",
        help="baseline suppression file "
        "(default: <root>/.lint-baseline.json)",
    )
    p_lint.add_argument(
        "--write-baseline",
        action="store_true",
        help="suppress every current finding by writing the baseline",
    )
    p_lint.add_argument(
        "--output",
        help="write the report to a file instead of stdout",
    )
    p_lint.add_argument(
        "--root", help="repository root (default: auto-detected)"
    )
    p_lint.add_argument(
        "--list-rules",
        action="store_true",
        help="list the available rules and exit",
    )
    p_lint.set_defaults(func=cmd_lint)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:  # e.g. output piped into head
        sys.stderr.close()
        return 0
    except ReproError as exc:  # bad SQL, unsupported language, ...
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
