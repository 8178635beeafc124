"""Differential tests: every fast kernel against the reference DP.

The banded scalar kernel (``edit_distance_within``), the vectorized
batch kernel (``batch_edit_distances_within``) and its pre-encoded CSR
variant must return *exactly* the reference ``edit_distance``'s
distances and accept/reject decisions — not approximately: every
shipped cost value is a binary fraction (1, 0.5, 0.25, ...), so the DP
arithmetic is exact in float64 and any deviation is a kernel bug, never
rounding.

The suite drives 5 000+ seeded random phoneme pairs (lengths 0–14,
every shipped cost model, budgets from knife-edge to generous) through
all three kernels, then separately exercises the cutoff (reject) path
and the cooperative deadline-cancel path.

The same differential idea covers the candidate source → verifier
pipeline: every source's select and join against the naive scan, and
every SQL accelerator method against the query with the accelerator
dropped, across DML, checkpoint/reopen and an old snapshot layout.
"""

from __future__ import annotations

import random
import time

import numpy as np
import pytest

from repro import deadline
from repro.errors import DeadlineExceededError
from repro.matching.batch import (
    EncodedCosts,
    batch_edit_distances_within,
    batch_edit_distances_within_encoded,
)
from repro.matching.costs import ClusteredCost, LevenshteinCost
from repro.matching.editdist import edit_distance, edit_distance_within

SEED = 20040314

# The same representative pool the property suite uses.
SYMBOLS = [
    "p", "b", "t", "d", "ʈ", "k", "g", "tʃ", "dʒ", "s", "z", "ʃ",
    "m", "n", "ŋ", "r", "l", "j", "w", "v", "h", "f",
    "a", "e", "i", "o", "u", "ə", "ɛ", "ɔ",
]

#: Every shipped cost-model shape: classical Levenshtein, the paper's
#: default fractional clustering, a half-cost variant with classical
#: indels, free intra-cluster substitution, and cheap weak indels.
COST_MODELS = [
    LevenshteinCost(),
    ClusteredCost(0.25),
    ClusteredCost(0.5, weak_indel_cost=1.0, vowel_cross_cost=1.0),
    ClusteredCost(0.0),
    ClusteredCost(1.0, weak_indel_cost=0.5),
]

THRESHOLDS = [0.0, 0.1, 0.25, 0.35, 0.5, 1.0]

QUERIES_PER_MODEL = 21
CANDIDATES_PER_QUERY = 48


def _random_string(rng: random.Random, max_len: int = 14) -> tuple:
    # Favor non-trivial lengths but keep empties in the mix.
    length = rng.choice([0, 1, 2] + list(range(3, max_len + 1)) * 2)
    return tuple(rng.choice(SYMBOLS) for _ in range(length))


def _battery():
    """(model, query, candidates, budgets) cases — ≥5k pairs in all."""
    rng = random.Random(SEED)
    cases = []
    for costs in COST_MODELS:
        for _ in range(QUERIES_PER_MODEL):
            query = _random_string(rng)
            candidates = [
                _random_string(rng)
                for _ in range(CANDIDATES_PER_QUERY)
            ]
            threshold = rng.choice(THRESHOLDS)
            budgets = [
                threshold * min(len(query), len(cand))
                for cand in candidates
            ]
            cases.append((costs, query, candidates, budgets))
    return cases


BATTERY = _battery()


def test_battery_covers_five_thousand_pairs():
    assert sum(len(case[2]) for case in BATTERY) >= 5000


class TestScalarBandedDifferential:
    def test_distances_and_decisions_identical(self):
        checked = 0
        for costs, query, candidates, budgets in BATTERY:
            for cand, budget in zip(candidates, budgets):
                full = edit_distance(query, cand, costs)
                banded = edit_distance_within(query, cand, budget, costs)
                if full <= budget:
                    assert banded == full, (query, cand, budget)
                else:
                    assert banded is None, (query, cand, budget, banded)
                checked += 1
        assert checked >= 5000

    def test_symmetry_of_decisions(self):
        # The banded window is asymmetric code-wise; results must not be.
        rng = random.Random(SEED + 1)
        for costs in COST_MODELS:
            for _ in range(40):
                a, b = _random_string(rng), _random_string(rng)
                budget = rng.choice(THRESHOLDS) * min(len(a), len(b))
                assert edit_distance_within(
                    a, b, budget, costs
                ) == edit_distance_within(b, a, budget, costs)

    def test_negative_budget_rejects(self):
        assert (
            edit_distance_within(("a",), ("a",), -0.5, COST_MODELS[0])
            is None
        )

    def test_zero_budget_accepts_only_identity(self):
        costs = LevenshteinCost()
        assert edit_distance_within(("a", "b"), ("a", "b"), 0.0, costs) == 0.0
        assert edit_distance_within(("a", "b"), ("a", "c"), 0.0, costs) is None


class TestBatchDifferential:
    def test_batch_identical_to_reference(self):
        checked = 0
        for costs, query, candidates, budgets in BATTERY:
            encoded = EncodedCosts(costs, SYMBOLS)
            got = batch_edit_distances_within(
                query, candidates, encoded, np.array(budgets)
            )
            for value, cand, budget in zip(got, candidates, budgets):
                full = edit_distance(query, cand, costs)
                if full <= budget:
                    assert value == full, (query, cand, budget)
                else:
                    assert value == np.inf, (query, cand, budget, value)
                checked += len(candidates)
        assert checked >= 5000

    def test_scalar_budget_broadcasts(self):
        costs, query, candidates, _ = BATTERY[0]
        encoded = EncodedCosts(costs, SYMBOLS)
        got = batch_edit_distances_within(query, candidates, encoded, 2.0)
        for value, cand in zip(got, candidates):
            full = edit_distance(query, cand, costs)
            assert (value == full) if full <= 2.0 else (value == np.inf)

    def test_encoded_rows_subset(self):
        """The CSR ``rows=`` path (what shard workers call) agrees."""
        rng = random.Random(SEED + 2)
        costs = ClusteredCost(0.25)
        encoded = EncodedCosts(costs, SYMBOLS)
        candidates = [_random_string(rng) for _ in range(60)]
        offsets = np.zeros(len(candidates) + 1, dtype=np.int64)
        for i, cand in enumerate(candidates):
            offsets[i + 1] = offsets[i] + len(cand)
        codes = np.concatenate(
            [encoded.encode(c) for c in candidates]
        ) if any(candidates) else np.empty(0, dtype=np.int64)
        query = _random_string(rng)
        rows = np.array(sorted(rng.sample(range(60), 25)))
        budgets = 0.35 * np.minimum(
            len(query), np.diff(offsets)[rows]
        )
        got = batch_edit_distances_within_encoded(
            encoded.encode(query), codes, offsets, encoded, budgets,
            rows=rows,
        )
        for value, row, budget in zip(got, rows, budgets):
            full = edit_distance(query, candidates[row], costs)
            if full <= budget:
                assert value == full
            else:
                assert value == np.inf

    def test_block_boundary_identical(self, monkeypatch):
        """Cache blocking (PADDED_BLOCK) never changes a result.

        Production blocks are 8k candidates wide; shrinking the block to
        7 forces many partial blocks (including a ragged final one) over
        the same battery case and must reproduce the unblocked output
        bit for bit.
        """
        from repro.matching import batch as batch_mod

        costs, query, candidates, budgets = BATTERY[1]
        encoded = EncodedCosts(costs, SYMBOLS)
        unblocked = batch_edit_distances_within(
            query, candidates, encoded, np.array(budgets)
        )
        monkeypatch.setattr(batch_mod, "PADDED_BLOCK", 7)
        blocked = batch_edit_distances_within(
            query, candidates, encoded, np.array(budgets)
        )
        assert np.array_equal(blocked, unblocked)

    def test_empty_candidate_list(self):
        encoded = EncodedCosts(LevenshteinCost(), SYMBOLS)
        got = batch_edit_distances_within(("a",), [], encoded, 1.0)
        assert got.shape == (0,)

    def test_empty_query_and_empty_candidates(self):
        costs = ClusteredCost(0.25)
        encoded = EncodedCosts(costs, SYMBOLS)
        candidates = [(), ("a",), ("a", "b", "e")]
        got = batch_edit_distances_within(
            (), candidates, encoded, np.array([0.0, 1.0, 1.0])
        )
        assert got[0] == 0.0
        assert got[1] == edit_distance((), ("a",), costs)
        assert got[2] == np.inf  # three insertions exceed budget 1.0


class TestAnnPrefilterDifferential:
    """The embedding prefilter against the naive scan, end to end.

    5k+ seeded (query, row) comparisons through the real strategy
    objects: the lossy default ("cost ≤ 2" admission radius) must
    return a *subset* of the naive scan's matches with measured recall
    ≥ 0.98, and with the admission radius set from the proven
    lower-bound constant (``lossless=True``) the result sets must be
    exactly equal.
    """

    ROWS = 640
    QUERY_COUNT = 8

    @pytest.fixture(scope="class")
    def catalog(self):
        from repro.core import LexEqualMatcher, NameCatalog
        from repro.data.generator import generate_performance_dataset
        from repro.data.lexicon import build_lexicon

        catalog = NameCatalog(LexEqualMatcher())
        items = generate_performance_dataset(build_lexicon(), self.ROWS)
        for item in items:
            catalog.add(item.name, item.language, ipa=item.ipa)
        return catalog

    @pytest.fixture(scope="class")
    def queries(self, catalog):
        rng = random.Random(SEED + 3)
        stored = [(r.name, r.language) for r in catalog.records()]
        picks = rng.sample(stored, self.QUERY_COUNT - 1)
        return picks + [("Zzyzx", "english")]  # a guaranteed miss

    @pytest.fixture(scope="class")
    def naive_results(self, catalog, queries):
        from repro.core import NaiveUdfStrategy

        naive = NaiveUdfStrategy(catalog)
        return {
            query: {r.id for r in naive.select(query, language)}
            for query, language in queries
        }

    def test_battery_covers_five_thousand_pairs(self, catalog, queries):
        assert len(catalog) * len(queries) >= 5000

    def test_lossy_subset_with_high_recall(self, catalog, queries,
                                           naive_results):
        from repro.core import AnnPrefilterStrategy

        ann = AnnPrefilterStrategy(catalog)
        matched = hits = 0
        for query, language in queries:
            expected = naive_results[query]
            got = {r.id for r in ann.select(query, language)}
            # Survivors are exactly verified, so anything reported must
            # be a true match: the prefilter can only *lose* matches.
            assert got <= expected, (query, sorted(got - expected))
            matched += len(expected)
            hits += len(got)
        assert matched > 0
        recall = hits / matched
        assert recall >= 0.98, f"ann recall {recall:.4f} on {matched}"

    def test_lossless_equals_naive(self, catalog, queries, naive_results):
        from repro.core import AnnPrefilterStrategy

        ann = AnnPrefilterStrategy(catalog, lossless=True)
        for query, language in queries:
            got = {r.id for r in ann.select(query, language)}
            assert got == naive_results[query], query


class TestDeadlineCancellation:
    """Both kernels honour an armed (and already expired) deadline."""

    LONG = tuple(SYMBOLS[i % len(SYMBOLS)] for i in range(40))
    NOISY = tuple(SYMBOLS[(i * 7 + 3) % len(SYMBOLS)] for i in range(40))

    def test_scalar_banded_cancels(self):
        with deadline.deadline_scope(1e-4):
            time.sleep(0.01)
            with pytest.raises(DeadlineExceededError):
                edit_distance_within(
                    self.LONG, self.NOISY, 40.0, LevenshteinCost()
                )

    def test_reference_dp_cancels(self):
        with deadline.deadline_scope(1e-4):
            time.sleep(0.01)
            with pytest.raises(DeadlineExceededError):
                edit_distance(self.LONG, self.NOISY, LevenshteinCost())

    def test_batch_cancels(self):
        encoded = EncodedCosts(LevenshteinCost(), SYMBOLS)
        with deadline.deadline_scope(1e-4):
            time.sleep(0.01)
            with pytest.raises(DeadlineExceededError):
                batch_edit_distances_within(
                    self.LONG, [self.NOISY] * 8, encoded, 40.0
                )

    def test_no_deadline_no_cancel(self):
        # Outside a scope the same inputs complete normally.
        got = edit_distance_within(
            self.LONG, self.NOISY, 40.0, LevenshteinCost()
        )
        assert got == edit_distance(self.LONG, self.NOISY, LevenshteinCost())


# ------------------------------------------- candidate source → verifier

#: The paper's Section 5 classical configuration and the shipped default.
PIPELINE_CONFIGS = {
    "classical": dict(
        threshold=0.25,
        intra_cluster_cost=1.0,
        weak_indel_cost=1.0,
        vowel_cross_cost=1.0,
    ),
    "clustered": {},
}


@pytest.fixture(scope="module", params=sorted(PIPELINE_CONFIGS))
def pipeline(request):
    """(catalog, queries, naive selects, naive join) per configuration."""
    from repro.core import LexEqualMatcher, MatchConfig, NameCatalog
    from repro.core import NaiveUdfStrategy
    from repro.data.generator import generate_performance_dataset
    from repro.data.lexicon import build_lexicon

    matcher = LexEqualMatcher(MatchConfig(**PIPELINE_CONFIGS[request.param]))
    catalog = NameCatalog(matcher)
    for item in generate_performance_dataset(build_lexicon(), 240):
        catalog.add(item.name, item.language, ipa=item.ipa)
    rng = random.Random(SEED + 4)
    stored = [(r.name, r.language) for r in catalog.records()]
    queries = [(q, lang, ()) for q, lang in rng.sample(stored, 6)]
    queries.append((stored[0][0], stored[0][1], ("hindi", "tamil")))
    queries.append(("Zzyzx", "english", ()))
    naive = NaiveUdfStrategy(catalog)
    selects = {
        query: [r.id for r in naive.select(*query)] for query in queries
    }
    join = [(a.id, b.id) for a, b in naive.join()]
    return catalog, queries, selects, join


class TestSourcePipelineDifferential:
    """Every source × {select, join} × {classical, clustered} vs naive.

    Lossless pipelines (q-grams, the embedding at its proven constant)
    must return exactly the naive scan's rows and pairs, in order; the
    lossy ones (grouped key, embedding at the default radius) a subset,
    the embedding at the pinned recall floor.
    """

    @staticmethod
    def _strategy(name, catalog):
        from repro.core import (
            AnnPrefilterStrategy,
            PhoneticIndexStrategy,
            QGramStrategy,
        )

        if name == "ann-lossless":
            return AnnPrefilterStrategy(catalog, lossless=True)
        return {
            "qgram": QGramStrategy,
            "index": PhoneticIndexStrategy,
            "ann": AnnPrefilterStrategy,
        }[name](catalog)

    @pytest.mark.parametrize(
        "name", ["qgram", "index", "ann", "ann-lossless"]
    )
    def test_select_and_join_against_naive(self, pipeline, name):
        from repro.perf.gates import ANN_RECALL_FLOOR

        catalog, queries, selects, join = pipeline
        strategy = self._strategy(name, catalog)
        got_selects = {
            query: [r.id for r in strategy.select(*query)]
            for query in queries
        }
        got_join = [(a.id, b.id) for a, b in strategy.join()]
        if name in ("qgram", "ann-lossless"):
            assert got_selects == selects
            assert got_join == join
            return
        expected = found = 0
        for query in queries:
            assert set(got_selects[query]) <= set(selects[query]), query
            expected += len(selects[query])
            found += len(got_selects[query])
        assert set(got_join) <= set(join)
        expected += len(join)
        found += len(got_join)
        if name == "ann":
            assert found / expected >= ANN_RECALL_FLOOR


# -------------------------------------------------- SQL accelerator paths

ACCEL_SQL = "SELECT id FROM names WHERE name LEXEQUAL :q THRESHOLD 0.25"
#: (method, options, lossless)
ACCELERATORS = [
    ("qgram", {}, True),
    ("index", {}, False),
    ("ann", {}, False),
    ("parallel", {"workers": 1}, True),
    ("auto", {}, True),
    ("auto", {"allow_lossy": True, "workers": 1}, False),
]
ACCEL_IDS = [
    f"{method}{'-' + '-'.join(options) if options else ''}"
    for method, options, _lossless in ACCELERATORS
]


@pytest.fixture(scope="module")
def accel_names():
    from repro.data.generator import generate_performance_dataset
    from repro.data.lexicon import build_lexicon

    return [
        item.name
        for item in generate_performance_dataset(build_lexicon(), 160)
    ]


def _accel_queries(names):
    rng = random.Random(SEED + 5)
    picked = rng.sample(names, 5) + ["Zzyzx"]
    return [
        (query, suffix)
        for query in picked
        for suffix in ("", " INLANGUAGES { english, hindi }")
    ]


def _answers(db, queries) -> dict:
    return {
        (query, suffix): sorted(
            db.execute(ACCEL_SQL + suffix, q=query).rows
        )
        for query, suffix in queries
    }


def _load_names(db, names, accelerate) -> None:
    """Half the rows, the accelerator, then interleaved DML.

    NORESOURCE rows (unsupported script) and NULLs ride along; every
    fifth row is deleted after the accelerator exists.
    """
    from repro.minidb.schema import Column
    from repro.minidb.values import SqlType

    db.create_table(
        "names",
        [
            Column("id", SqlType.INTEGER, nullable=False),
            Column("name", SqlType.TEXT),
        ],
    )
    half = len(names) // 2
    rowids = [
        db.insert("names", (i, name)) for i, name in enumerate(names[:half])
    ]
    accelerate()
    for i, name in enumerate(names[half:], start=half):
        rowids.append(db.insert("names", (i, name)))
        if i % 5 == 0:
            db.delete_row("names", rowids[i - half])
    db.insert("names", (len(names), "נהרו"))
    db.insert("names", (len(names) + 1, None))


class TestAcceleratorDifferential:
    """SQL ``LEXEQUAL`` with each accelerator vs the same query without.

    The accelerator returns verified rows and the planner's UDF recheck
    still applies NULL, INLANGUAGES and NORESOURCE semantics, so a
    lossless method must agree exactly with the plain scan, and a lossy
    one may only drop rows.
    """

    @pytest.mark.parametrize(
        "method,options,lossless", ACCELERATORS, ids=ACCEL_IDS
    )
    def test_matches_unaccelerated_scan(
        self, accel_names, method, options, lossless
    ):
        from repro import Database, install_lexequal
        from repro.core import LexEqualMatcher, create_phonetic_accelerator

        matcher = LexEqualMatcher()
        db = Database()
        install_lexequal(db, matcher)
        holder = []
        _load_names(
            db,
            accel_names,
            lambda: holder.append(
                create_phonetic_accelerator(
                    db, "names", "name", matcher, method=method, **options
                )
            ),
        )
        db.analyze()
        queries = _accel_queries(accel_names)
        accelerated = _answers(db, queries)
        holder[0].drop()
        plain = _answers(db, queries)
        assert any(plain.values())
        for key, rows in plain.items():
            if lossless:
                assert accelerated[key] == rows, key
            else:
                assert set(accelerated[key]) <= set(rows), key

    @pytest.mark.parametrize(
        "method,options,lossless", ACCELERATORS, ids=ACCEL_IDS
    )
    def test_checkpoint_reopen_same_answers(
        self, tmp_path, accel_names, method, options, lossless
    ):
        from repro.core import LexEqualMatcher, create_phonetic_accelerator
        from repro.core.integration import install_lexequal
        from repro.storage import open_database

        matcher = LexEqualMatcher()
        db = open_database(str(tmp_path), matcher=matcher, sync=False)
        install_lexequal(db, matcher)
        holder = []
        _load_names(
            db,
            accel_names,
            lambda: holder.append(
                create_phonetic_accelerator(
                    db, "names", "name", matcher, method=method, **options
                )
            ),
        )
        db.analyze()
        db.checkpoint()
        # A post-checkpoint delta the reopened accelerator must replay.
        db.insert("names", (999, accel_names[1]))
        queries = _accel_queries(accel_names)
        before = _answers(db, queries)
        holder[0].drop()
        db.storage.close()

        reopened = open_database(str(tmp_path), matcher=matcher)
        try:
            assert reopened.accelerator_for("names", "name") is not None
            assert _answers(reopened, queries) == before
        finally:
            accelerator = reopened.accelerator_for("names", "name")
            if accelerator is not None:
                accelerator.drop()
            reopened.storage.close()

    def test_old_snapshot_layout_rebuilds(self, accel_names):
        """A pre-sources snapshot (B+ tree gram table, no layout tag) is
        rebuilt from the heap instead of crashing or answering wrong."""
        from repro import Database, install_lexequal
        from repro.core import LexEqualMatcher, create_phonetic_accelerator

        matcher = LexEqualMatcher()
        db = Database()
        install_lexequal(db, matcher)
        _load_names(db, accel_names, lambda: None)
        fresh = create_phonetic_accelerator(db, "names", "name", matcher)
        queries = _accel_queries(accel_names)
        expected = _answers(db, queries)
        fresh.drop()
        old_layout = {
            "method": "qgram",
            "phonemes": {0: ("n", "e", "r", "u")},
            "langs": {0: "english"},
            "tokens": {0: ("1", "2", "3", "4")},
            "grams": {"order": 32, "items": [("1\x1f2", [(0, 1)])]},
        }
        restored = create_phonetic_accelerator(
            db, "names", "name", matcher, restore=old_layout
        )
        assert _answers(db, queries) == expected
        assert sorted(restored._phonemes) == sorted(
            rowid
            for rowid, row in db.table("names").scan()
            if row[1] is not None and row[1] != "נהרו"
        )
