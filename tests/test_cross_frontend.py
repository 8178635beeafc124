"""The Strategy API and SQL agree on every filter-then-verify method.

Both frontends hold one :class:`~repro.core.sources.KeyedPhonemes` over
the same names: a :class:`NameCatalog` keyed by record id, and a
fixed-method SQL accelerator keyed by rowid.  Seeded lexicon names go
through TTP on both sides (no ``ipa=`` override), so any difference
comes from the frontends, not their inputs.  For ``qgram``, ``index``
and ``parallel`` the two must return the same match sets, and the
lossless ones must equal :class:`NaiveUdfStrategy`.

``INLANGUAGES`` sets always contain the query's language: there the
Strategy API's row-side filter and SQL's both-operands rule agree
(DESIGN.md, *Two language filters*).
"""

from __future__ import annotations

import random

import pytest

from repro.core import (
    LexEqualMatcher,
    MatchConfig,
    NaiveUdfStrategy,
    NameCatalog,
    PhoneticIndexStrategy,
    QGramStrategy,
    create_phonetic_accelerator,
    install_lexequal,
)
from repro.data.generator import generate_performance_dataset
from repro.data.lexicon import build_lexicon
from repro.minidb.catalog import Database
from repro.minidb.schema import Column
from repro.minidb.values import SqlType
from repro.parallel import ParallelStrategy

SEED = 2004

CONFIGS = {
    "classical": dict(
        threshold=0.25,
        intra_cluster_cost=1.0,
        weak_indel_cost=1.0,
        vowel_cross_cost=1.0,
    ),
    "clustered": {},
}

#: Method -> (Strategy-API strategy over a catalog, accelerator options).
METHODS = {
    "qgram": (QGramStrategy, {}),
    "index": (PhoneticIndexStrategy, {}),
    "parallel": (
        lambda catalog: ParallelStrategy(catalog, workers=1),
        {"workers": 1},
    ),
}


@pytest.fixture(scope="module")
def items():
    return list(generate_performance_dataset(build_lexicon(), 150))


def _frontends(items, matcher, method):
    catalog = NameCatalog(matcher)
    db = Database()
    install_lexequal(db, matcher)
    db.create_table(
        "names",
        [
            Column("id", SqlType.INTEGER, nullable=False),
            Column("name", SqlType.TEXT),
        ],
    )
    for i, item in enumerate(items):
        assert catalog.add(item.name, item.language) == i
        db.insert("names", (i, item.name))
    strategy, options = METHODS[method]
    accelerator = create_phonetic_accelerator(
        db, "names", "name", matcher, method=method, **options
    )
    return catalog, strategy(catalog), db, accelerator


@pytest.mark.parametrize("method", sorted(METHODS))
@pytest.mark.parametrize("costs", sorted(CONFIGS))
def test_strategy_api_equals_sql(items, costs, method):
    matcher = LexEqualMatcher(MatchConfig(**CONFIGS[costs]))
    catalog, strategy, db, accelerator = _frontends(items, matcher, method)
    naive = NaiveUdfStrategy(catalog)
    languages = sorted({item.language for item in items})
    rng = random.Random(SEED)
    sql = (
        "SELECT id FROM names WHERE name LEXEQUAL :q "
        f"THRESHOLD {matcher.config.threshold}"
    )
    matched = 0
    try:
        for query in rng.sample(items, 8):
            other = rng.choice([x for x in languages if x != query.language])
            for wanted in ((), (query.language,), (query.language, other)):
                suffix = (
                    f" INLANGUAGES {{ {', '.join(wanted)} }}" if wanted else ""
                )
                via_sql = {
                    row[0] for row in db.execute(sql + suffix, q=query.name).rows
                }
                assert accelerator.last_method == method
                via_api = {
                    record.id
                    for record in strategy.select(
                        query.name, query.language, wanted
                    )
                }
                assert via_api == via_sql, (query, wanted)
                if method != "index":
                    expected = {
                        record.id
                        for record in naive.select(
                            query.name, query.language, wanted
                        )
                    }
                    assert via_api == expected, (query, wanted)
                matched += len(via_api)
    finally:
        accelerator.drop()
    assert matched
