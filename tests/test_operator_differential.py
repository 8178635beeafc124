"""Every frontend of the LexEQUAL operator gives the Figure 8 answer.

The operator is written once, as
:meth:`~repro.core.matcher.LexEqualMatcher.match`.  This suite holds
its other entry points to it on the same inputs: :func:`lex_equal`,
``explain(...).outcome``, the in-process server op
(:meth:`QueryService.lexequal`), and SQL ``LEXEQUAL`` on a table with no
accelerator and with ``qgram`` and ``auto`` accelerators.

Inputs are seeded lexicon names in three scripts plus Greek and Arabic
names, two ``NORESOURCE`` operands (a ``klingon`` tag and Hebrew script)
and a NULL row, at thresholds 0, 0.25 and 1 and with no threshold (the
configured one; in SQL, no ``THRESHOLD`` clause), under ``INLANGUAGES``
sets that are empty, hold both operands' languages, or leave one out.
The out-of-range threshold 1.5 must be rejected by every entry point.
NULL is SQL-only: the UDF answers NULL before the operator runs.
"""

from __future__ import annotations

import random

import pytest

from repro.core import (
    LexEqualMatcher,
    MatchOutcome,
    create_phonetic_accelerator,
    install_lexequal,
    lex_equal,
)
from repro.data.lexicon import default_lexicon
from repro.errors import MatchConfigError
from repro.minidb.catalog import Database
from repro.minidb.schema import Column
from repro.minidb.values import LangText, SqlType
from repro.server.service import QueryService

SEED = 8

#: None: no threshold given, so the matcher's configured one applies.
THRESHOLDS = (0.0, 0.25, 1.0, None)

SQL = "SELECT id FROM names WHERE name LEXEQUAL :q"

KLINGON = LangText("Worf", "klingon")
HEBREW = "שלום"


@pytest.fixture(scope="module")
def matcher():
    return LexEqualMatcher()


@pytest.fixture(scope="module")
def rows():
    """Row id -> stored value: three scripts per sampled lexicon tag,
    two more scripts, a NORESOURCE tag and a NULL."""
    by_tag: dict[int, list] = {}
    for entry in default_lexicon():
        by_tag.setdefault(entry.tag, []).append(entry)
    rng = random.Random(SEED)
    values = [
        LangText(entry.name, entry.language)
        for tag in rng.sample(sorted(by_tag), 6)
        for entry in by_tag[tag]
    ]
    values += [
        LangText("Σαρρη", "greek"),
        LangText("محمد", "arabic"),
        KLINGON,
        None,
    ]
    return dict(enumerate(values))


@pytest.fixture(scope="module")
def queries(rows):
    """Tagged and untagged (script-detected) names, and both NORESOURCE
    operands."""
    named = [value for value in rows.values() if value is not None]
    rng = random.Random(SEED + 1)
    picked = rng.sample(named[:18], 4)
    return [
        picked[0],
        picked[1],
        picked[2].text,
        picked[3].text,
        "Muhammad",
        HEBREW,
        KLINGON,
    ]


@pytest.fixture(scope="module")
def databases(rows, matcher):
    """SQL over the same rows: no accelerator, ``qgram`` and ``auto``."""
    built = {}
    for plan in ("none", "qgram", "auto"):
        db = Database()
        install_lexequal(db, matcher)
        db.create_table(
            "names",
            [
                Column("id", SqlType.INTEGER, nullable=False),
                Column("name", SqlType.LANGTEXT),
            ],
        )
        for row_id, value in rows.items():
            db.insert("names", (row_id, value))
        if plan != "none":
            create_phonetic_accelerator(db, "names", "name", matcher, method=plan)
            db.analyze()
        built[plan] = db
    yield built
    for plan in ("qgram", "auto"):
        built[plan].accelerator_for("names", "name").drop()


def _language_sets(matcher, query, rows):
    """Empty; every language in play (holds both operands' languages);
    the stored languages without the query's (leaves the query out);
    the query's with one other (leaves most rows out)."""
    query_language = matcher.language_of(query) or "english"
    stored = sorted(
        {matcher.language_of(v) for v in rows.values() if v is not None}
    )
    other = next(lang for lang in stored if lang != query_language)
    return (
        (),
        tuple(sorted({*stored, query_language})),
        tuple(lang for lang in stored if lang != query_language),
        (query_language, other),
    )


def _sql(db, query, threshold, languages):
    suffix = "" if threshold is None else " THRESHOLD :e"
    if languages:
        suffix += f" INLANGUAGES {{ {', '.join(languages)} }}"
    return {row[0] for row in db.execute(SQL + suffix, q=query, e=threshold).rows}


def test_every_frontend_gives_the_operators_answer(
    matcher, rows, queries, databases
):
    service = QueryService(databases["none"], matcher)
    seen = set()
    for query in queries:
        for languages in _language_sets(matcher, query, rows):
            for threshold in THRESHOLDS:
                matching = set()
                for row_id, value in rows.items():
                    if value is None:
                        continue
                    outcome = matcher.match(value, query, threshold, languages)
                    assert lex_equal(
                        value,
                        query,
                        threshold,
                        config=matcher.config,
                        registry=matcher.registry,
                        languages=languages,
                    ) is outcome
                    explained = matcher.explain(
                        value, query, threshold, languages
                    )
                    assert explained.outcome is outcome
                    served = service.lexequal(
                        value, query, threshold, ",".join(languages)
                    )
                    assert served["outcome"] == outcome.value, (
                        value, query, threshold, languages,
                    )
                    seen.add(outcome)
                    if outcome is MatchOutcome.TRUE:
                        matching.add(row_id)
                for plan, db in databases.items():
                    assert _sql(db, query, threshold, languages) == matching, (
                        plan, query, threshold, languages,
                    )
    # The battery reaches all three outcomes.
    assert seen == set(MatchOutcome)


@pytest.mark.parametrize("query", ["Nehru", HEBREW, KLINGON])
def test_out_of_range_threshold_is_rejected_everywhere(
    matcher, rows, databases, query
):
    service = QueryService(databases["none"], matcher)
    stored = rows[0]
    for call in (
        lambda: matcher.match(stored, query, 1.5),
        lambda: lex_equal(stored, query, 1.5),
        lambda: matcher.explain(stored, query, 1.5),
        lambda: service.lexequal(stored, query, 1.5),
        lambda: matcher.ipa_match("nɛhru", "nɛru", 1.5),
    ):
        with pytest.raises(MatchConfigError, match="not in \\[0, 1\\]"):
            call()
    for plan, db in databases.items():
        with pytest.raises(MatchConfigError, match="not in \\[0, 1\\]"):
            _sql(db, query, 1.5, ())
        with pytest.raises(MatchConfigError):
            _sql(db, query, -0.25, ())
