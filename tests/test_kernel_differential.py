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
The q-gram source is also held to the pairwise Figure 14 filters of
the tests' oracle, and lock-free accelerated selects to the
answers they gave before a concurrent writer started.  The one
verifier, ``PhonemeStore.verify`` over its stored code columns, is held
to per-key scalar rechecks across random writes, a reader holding
columns from before a growth, and a concurrent writer.
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

    The lossless q-gram pipeline must return exactly the naive scan's
    rows and pairs, in order; the lossy grouped-key one a subset.
    """

    @pytest.mark.parametrize("name", ["qgram", "index"])
    def test_select_and_join_against_naive(self, pipeline, name):
        from repro.core import PhoneticIndexStrategy, QGramStrategy

        catalog, queries, selects, join = pipeline
        lossless = name == "qgram"
        strategy = (QGramStrategy if lossless else PhoneticIndexStrategy)(
            catalog
        )
        got_selects = {
            query: [r.id for r in strategy.select(*query)]
            for query in queries
        }
        got_join = [(a.id, b.id) for a, b in strategy.join()]
        if lossless:
            assert got_selects == selects
            assert got_join == join
            return
        for query in queries:
            assert set(got_selects[query]) <= set(selects[query]), query
        assert set(got_join) <= set(join)


# ------------------------------------------ q-gram source vs Figure 14

ORACLE_THRESHOLDS = (0.25, 0.5, 0.75, 1.0)


def _fig14_keys(stored: dict, query, config) -> tuple[list[int], int]:
    """The pairwise Figure 14 check over every stored string.

    A key passes the length filter and has at least
    ``count_filter_threshold`` position-compatible q-gram pairs with the
    query; a vacuous threshold (``<= 0``) admits it on length alone.
    Returns the sorted passing keys and how many of them share no gram.
    """
    from repro.core.sources import filter_tokens
    from repro.matching.qgrams import (
        count_filter_threshold,
        matching_qgram_pairs,
        positional_qgrams,
    )
    from tests.oracle import length_filter

    q = config.q
    query_tokens = filter_tokens(query, config)
    k = config.max_operations(len(query_tokens))
    query_grams = positional_qgrams(query_tokens, q)
    keys, gramless = [], 0
    for key, phonemes in stored.items():
        tokens = filter_tokens(phonemes, config)
        if not length_filter(len(query_tokens), len(tokens), k):
            continue
        pairs = matching_qgram_pairs(
            query_grams, positional_qgrams(tokens, q), k
        )
        if pairs >= count_filter_threshold(
            len(query_tokens), len(tokens), k, q
        ):
            keys.append(key)
            gramless += pairs == 0
    return sorted(keys), gramless


class TestQGramSourceOracle:
    """``QGramSource.candidates`` equals the pairwise Figure 14 check
    built from :mod:`repro.matching.qgrams`, across interleaved add/remove and a
    pickled ``state()`` → ``from_state()`` round trip."""

    ROWS = 180
    PROBES = 6

    @pytest.fixture(scope="class")
    def strings(self):
        from repro.data.generator import generate_performance_dataset
        from repro.data.lexicon import build_lexicon
        from repro.phonetics.parse import parse_ipa

        items = generate_performance_dataset(build_lexicon(), self.ROWS)
        return [parse_ipa(item.ipa) for item in items]

    def _check(self, source, stored, config, rng) -> int:
        gramless = 0
        probes = rng.sample(sorted(stored), self.PROBES)
        queries = [stored[key] for key in probes] + [("x", "ʒ"), ("a",)]
        for threshold in ORACLE_THRESHOLDS:
            at = config.with_threshold(threshold)
            for query in queries:
                expected, extra = _fig14_keys(stored, query, at)
                assert source.candidates(query, at) == expected, (
                    threshold,
                    query,
                )
                gramless += extra
        return gramless

    @pytest.mark.parametrize("q", [2, 3])
    @pytest.mark.parametrize("domain", ["cluster", "phoneme"])
    def test_equals_pairwise_check(self, strings, q, domain):
        import pickle

        from repro.core import MatchConfig
        from repro.core.sources import QGramSource

        config = MatchConfig(q=q, qgram_domain=domain)
        rng = random.Random(SEED + 6)
        source = QGramSource(config)
        stored = {}
        half = len(strings) // 2
        for key, phonemes in enumerate(strings[:half]):
            source.add(key, phonemes)
            stored[key] = phonemes
        for key in range(0, half, 4):
            source.remove(key)
            del stored[key]
        source.remove(10_000)  # absent: a no-op
        gramless = self._check(source, stored, config, rng)
        for key, phonemes in enumerate(strings[half:], start=half):
            source.add(key, phonemes)
            stored[key] = phonemes
            if key % 3 == 0:
                source.remove(key - 1)
                stored.pop(key - 1, None)
        gramless += self._check(source, stored, config, rng)
        assert len(source) == len(stored)

        restored = QGramSource.from_state(
            config, pickle.loads(pickle.dumps(source.state()))
        )
        assert restored.posting_count == source.posting_count
        assert restored.avg_posting() == source.avg_posting()
        gramless += self._check(restored, stored, config, rng)
        # The restored columns keep growing and shrinking correctly.
        for key in sorted(stored)[::5]:
            restored.remove(key)
            del stored[key]
        for key, phonemes in enumerate(strings[:20], start=len(strings)):
            restored.add(key, phonemes)
            stored[key] = phonemes
        gramless += self._check(restored, stored, config, rng)
        # The short-string union was exercised, not just vacuously true.
        assert gramless > 0


# -------------------------------------------------- SQL accelerator paths

ACCEL_SQL = "SELECT id FROM names WHERE name LEXEQUAL :q THRESHOLD 0.25"
#: (method, options, lossless)
ACCELERATORS = [
    ("qgram", {}, True),
    ("index", {}, False),
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

        # The snapshot attaches without TTP over the table: only the
        # delta row is converted.
        calls = []
        transform = matcher.registry.transform
        matcher.registry.transform = lambda *a: (
            calls.append(a[0]), transform(*a)
        )[1]
        try:
            reopened = open_database(str(tmp_path), matcher=matcher)
        finally:
            del matcher.registry.transform
        try:
            assert calls == [accel_names[1]]
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
        assert sorted(restored.keyed.store) == sorted(
            rowid
            for rowid, row in db.table("names").scan()
            if row[1] is not None and row[1] != "נהרו"
        )

    def test_legacy_qgram_state_rebuilds(self, accel_names):
        """A layout-2 snapshot whose q-gram state is the pre-columnar
        ``{"tokens", "postings": lists}`` form re-indexes from the
        snapshot's phonemes and answers exactly like a fresh build."""
        from repro import Database, install_lexequal
        from repro.core import LexEqualMatcher, create_phonetic_accelerator
        from repro.core.sources import QGramSource
        from repro.matching.qgrams import positional_qgrams

        matcher = LexEqualMatcher()
        db = Database()
        install_lexequal(db, matcher)
        holder = []
        _load_names(
            db,
            accel_names,
            lambda: holder.append(
                create_phonetic_accelerator(db, "names", "name", matcher)
            ),
        )
        queries = _accel_queries(accel_names)
        expected = _answers(db, queries)
        snapshot = holder[0].snapshot_state()
        holder[0].drop()
        tokens = snapshot["qgram"]["tokens"]
        postings: dict = {}
        for key, grams in tokens.items():
            for gram in positional_qgrams(grams, matcher.config.q):
                postings.setdefault(gram.gram, []).append((key, gram.pos))
        snapshot["qgram"] = {"tokens": tokens, "postings": postings}
        assert QGramSource.from_state(matcher.config, snapshot["qgram"]) is None

        restored = create_phonetic_accelerator(
            db, "names", "name", matcher, restore=snapshot
        )
        source = restored.keyed.source("qgram")
        assert isinstance(source, QGramSource) and len(source) == len(tokens)
        assert _answers(db, queries) == expected

    def test_inventory_order_encoded_state_restores(self, accel_names):
        """A LEXSNAP written by older versions of a ``parallel``
        accelerator still carries an ``"encoded"`` table (here in the
        inventory's insertion order, the code space before
        ``SYMBOL_CODES``).  It reopens without re-running TTP, the entry
        is ignored, and the answers equal the unaccelerated scan."""
        import io

        import numpy as np

        from repro import Database, install_lexequal
        from repro.core import LexEqualMatcher, create_phonetic_accelerator
        from repro.core.engine import SNAPSHOT_LAYOUT
        from repro.phonetics.inventory import INVENTORY, SYMBOL_CODES
        from repro.storage import snapshots

        options = {"method": "parallel", "workers": 1}
        matcher = LexEqualMatcher()
        db = Database()
        install_lexequal(db, matcher)
        holder = []
        _load_names(
            db,
            accel_names,
            lambda: holder.append(
                create_phonetic_accelerator(
                    db, "names", "name", matcher, **options
                )
            ),
        )
        queries = _accel_queries(accel_names)
        snapshot = holder[0].snapshot_state()
        holder[0].drop()
        assert "encoded" not in snapshot
        assert snapshot["layout"] == SNAPSHOT_LAYOUT == 2
        expected = _answers(db, queries)
        inventory_order = list(INVENTORY)
        assert inventory_order != list(SYMBOL_CODES)
        index = {symbol: code for code, symbol in enumerate(inventory_order)}
        rows = sorted(snapshot["phonemes"].items())
        lengths = [len(phonemes) for _rowid, phonemes in rows]
        snapshot["encoded"] = {
            "codes": np.array(
                [index[s] for _rowid, ph in rows for s in ph], np.int64
            ),
            "offsets": np.concatenate([[0], np.cumsum(lengths)]),
            "ids": np.array([rowid for rowid, _ph in rows], np.int64),
            "lang_codes": np.zeros(len(rows), np.int16),
            "languages": ("",),
            "symbols": inventory_order,
        }
        stored = io.BytesIO()
        snapshots.dump(stored, "accelerator", snapshot)
        stored.seek(0)
        snapshot = snapshots.load(stored, "accelerator")

        calls = []
        transform = matcher.registry.transform
        matcher.registry.transform = lambda *a: (
            calls.append(a), transform(*a)
        )[1]
        try:
            restored = create_phonetic_accelerator(
                db, "names", "name", matcher, restore=snapshot, **options
            )
        finally:
            del matcher.registry.transform
        try:
            assert calls == []
            assert _answers(db, queries) == expected
            table = restored._executor.table
            assert table.store is restored.keyed.store
            assert "encoded" not in restored.snapshot_state()
        finally:
            restored.drop()

    @pytest.mark.parametrize(
        "persisted,options",
        [("ann", {}), ("auto", {"allow_lossy": True})],
        ids=["ann", "auto-allow_lossy"],
    )
    def test_retired_ann_state_reopens(
        self, tmp_path, accel_names, persisted, options
    ):
        """A data dir written while the ``ann`` embedding prefilter
        existed still opens.  Its manifest may name method ``"ann"``
        (reattached as ``"qgram"``, rebuilt from the table), its
        snapshot carries an ``"ann"`` matrix, its ``stats.json`` an
        ``ann_sel``, and a ``.ann`` sidecar sits beside the ``.idx``.
        The sidecar is never read, the stale entries are ignored, and the
        answers equal the unaccelerated scan."""
        import json
        import os

        from repro.core import LexEqualMatcher, create_phonetic_accelerator
        from repro.core.integration import install_lexequal
        from repro.storage import layout, open_database, snapshots

        data_dir = str(tmp_path)
        artifact = "accel_names_name"
        built = "qgram" if persisted == "ann" else persisted
        matcher = LexEqualMatcher()
        db = open_database(data_dir, matcher=matcher, sync=False)
        install_lexequal(db, matcher)
        holder = []
        _load_names(
            db,
            accel_names,
            lambda: holder.append(
                create_phonetic_accelerator(
                    db, "names", "name", matcher, method=built, **options
                )
            ),
        )
        db.analyze()
        db.checkpoint()
        queries = _accel_queries(accel_names)
        holder[0].drop()
        plain = _answers(db, queries)
        assert any(plain.values())
        db.storage.close()

        def rewrite_json(path, edit):
            with open(path) as fh:
                payload = json.load(fh)
            edit(payload)
            with open(path, "w") as fh:
                json.dump(payload, fh)

        def old_meta(manifest):
            (entry,) = manifest["accelerators"]
            entry["method"] = persisted

        def old_stats(stats):
            stats["tables"]["names"]["accelerated"]["name"]["ann_sel"] = 0.03

        rewrite_json(layout.manifest_path(data_dir), old_meta)
        rewrite_json(layout.stats_path(data_dir), old_stats)
        idx = layout.index_path(data_dir, artifact)
        with open(idx, "rb") as fh:
            snapshot = snapshots.load(fh, "artifact")
        snapshot["method"] = persisted
        snapshot["ann"] = {"matrix": b"\x00" * 64, "rowids": [0, 1]}
        with open(idx, "wb") as fh:
            snapshots.dump(fh, "artifact", snapshot)
        sidecar = os.path.join(layout.index_dir(data_dir), artifact + ".ann")
        junk = b"not a LEXSNAP container"
        with open(sidecar, "wb") as fh:
            fh.write(junk)

        reopened = open_database(data_dir, matcher=matcher)
        try:
            accelerator = reopened.accelerator_for("names", "name")
            assert accelerator.method == built
            assert "ann" not in accelerator.keyed._sources
            stats = reopened.stats.accelerator("names", "name")
            assert stats is not None and stats.qgram_sel is not None
            accelerated = _answers(reopened, queries)
            for key, rows in plain.items():
                if built == "qgram":
                    assert accelerated[key] == rows, key
                else:
                    assert set(accelerated[key]) <= set(rows), key
            reopened.checkpoint()
            with open(idx, "rb") as fh:
                rewritten = snapshots.load(fh, "artifact")
            assert rewritten["method"] == built and "ann" not in rewritten
            with open(sidecar, "rb") as fh:
                assert fh.read() == junk
        finally:
            accelerator = reopened.accelerator_for("names", "name")
            if accelerator is not None:
                accelerator.drop()
            reopened.storage.close()

    @pytest.mark.parametrize("threshold", [0.5, 0.75, 1.0])
    def test_high_threshold_matches_unaccelerated_scan(
        self, accel_names, threshold
    ):
        """Where the count filter is vacuous the q-gram source must still
        admit short strings that share no gram with the query."""
        from repro import Database, install_lexequal
        from repro.core import LexEqualMatcher, create_phonetic_accelerator

        sql = (
            "SELECT id FROM names WHERE name LEXEQUAL :q "
            f"THRESHOLD {threshold}"
        )
        matcher = LexEqualMatcher()
        db = Database()
        install_lexequal(db, matcher)
        holder = []
        _load_names(
            db,
            accel_names,
            lambda: holder.append(
                create_phonetic_accelerator(db, "names", "name", matcher)
            ),
        )
        picked = {query for query, _suffix in _accel_queries(accel_names)}
        queries = sorted(picked | set(accel_names[::16]))

        def answers():
            return {q: sorted(db.execute(sql, q=q).rows) for q in queries}

        accelerated = answers()
        holder[0].drop()
        assert accelerated == answers()


def test_selects_stay_consistent_while_a_writer_inserts(accel_names):
    """Four readers run accelerated LEXEQUAL selects, lock-free, while
    one writer inserts: no reader fails, and every answer keeps each
    match that existed before the writer started."""
    import sys
    import threading

    from repro import Database, install_lexequal
    from repro.core import LexEqualMatcher, create_phonetic_accelerator
    from repro.minidb.schema import Column
    from repro.minidb.values import SqlType

    matcher = LexEqualMatcher()
    db = Database()
    install_lexequal(db, matcher)
    db.create_table(
        "names",
        [
            Column("id", SqlType.INTEGER, nullable=False),
            Column("name", SqlType.TEXT),
        ],
    )
    for i, name in enumerate(accel_names):
        db.insert("names", (i, name))
    create_phonetic_accelerator(db, "names", "name", matcher)
    queries = accel_names[::8]
    before = {q: set(db.execute(ACCEL_SQL, q=q).rows) for q in queries}
    assert any(before.values())
    errors: list = []
    writer_done = threading.Event()

    def writer():
        try:
            for round_ in range(3):
                for i, name in enumerate(accel_names):
                    db.insert("names", (1000 * (round_ + 1) + i, name))
        except Exception as exc:  # noqa: BLE001 - reported below
            errors.append(exc)
        finally:
            writer_done.set()

    def reader(offset):
        try:
            rounds = 0
            while not writer_done.is_set() or rounds < 2:
                for query in queries[offset::4]:
                    rows = set(db.execute(ACCEL_SQL, q=query).rows)
                    missing = before[query] - rows
                    assert not missing, (query, sorted(missing))
                rounds += 1
        except Exception as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    threads = [threading.Thread(target=writer)] + [
        threading.Thread(target=reader, args=(offset,))
        for offset in range(4)
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads mid-publish, often
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors, errors
    # Once the writer is done, the accelerator agrees with the scan.
    accelerated = {q: sorted(db.execute(ACCEL_SQL, q=q).rows) for q in queries}
    db.accelerator_for("names", "name").drop()
    assert accelerated == {
        q: sorted(db.execute(ACCEL_SQL, q=q).rows) for q in queries
    }


# --------------------------------------- phoneme store vs scalar filter

#: Hand-written IPA outside the inventory's code space.
UNKNOWN = ("ʘ", "ǂ", "χ")


def _scalar_keys(stored: dict, query, keys, threshold, costs) -> list[int]:
    """The reference verifier: scalar ``edit_distance_within`` per key,
    in input order, absent keys skipped."""
    return [
        key
        for key in keys
        if key in stored
        and edit_distance_within(
            query,
            stored[key],
            threshold * min(len(query), len(stored[key])),
            costs,
        )
        is not None
    ]


class TestPhonemeStoreOracle:
    """``PhonemeStore.verify`` over its stored code columns equals the
    scalar filter of the same keys, across random interleavings of
    ``[k] = v``, ``pop``, re-set and ``update`` (with compaction); a
    string outside the code space is rejected and changes nothing."""

    @pytest.fixture(scope="class")
    def strings(self):
        from repro.data.generator import generate_performance_dataset
        from repro.data.lexicon import build_lexicon
        from repro.phonetics.parse import parse_ipa

        items = generate_performance_dataset(build_lexicon(), 160)
        return [parse_ipa(item.ipa) for item in items]

    @pytest.mark.parametrize("name", sorted(PIPELINE_CONFIGS))
    def test_interleavings_equal_scalar_filter(self, strings, name):
        from repro.core import MatchConfig
        from repro.core.sources import PhonemeStore

        costs = MatchConfig(**PIPELINE_CONFIGS[name]).cost_model()
        rng = random.Random(SEED + 7)
        store = PhonemeStore(costs)
        stored: dict = {}
        compactions = []
        compact = store._compact
        store._compact = lambda: (compactions.append(1), compact())[1]
        for step in range(600):
            op = rng.random()
            key = rng.randrange(120)
            if op < 0.45:
                store[key] = stored[key] = rng.choice(strings)
            elif op < 0.7:
                assert store.pop(key, None) == stored.pop(key, None)
            else:
                batch = {
                    rng.randrange(120): rng.choice(strings)
                    for _ in range(rng.randrange(1, 6))
                }
                store.update(batch)
                stored.update(batch)
            if step % 10:
                continue
            assert dict(store) == stored and len(store) == len(stored)
            keys = rng.sample(range(130), 60)
            query = rng.choice(strings)
            for threshold in (0.25, 0.5, 1.0):
                assert store.verify(query, keys, threshold) == _scalar_keys(
                    stored, query, keys, threshold, costs
                )
        assert compactions

    def test_out_of_inventory_write_and_query_rejected(self, strings):
        """A write holding a symbol outside the code space raises
        ``PhonemeError`` and leaves the key's old string in place for
        the mapping, the verifier and the export alike, with ``writes``
        unchanged; a query holding one raises from the store's verifier
        and from the parallel executor."""
        from repro.core import MatchConfig
        from repro.core.sources import PhonemeStore
        from repro.errors import PhonemeError
        from repro.parallel import EncodedNameTable, ParallelMatchExecutor
        from repro.phonetics.inventory import SYMBOL_CODES

        store = PhonemeStore(MatchConfig().cost_model())
        store.update(enumerate(strings[:3]))
        old, writes = strings[1], store.writes
        with pytest.raises(PhonemeError):
            store[1] = old[:-1] + (UNKNOWN[0],)
        assert dict(store) == dict(enumerate(strings[:3]))
        assert store.writes == writes
        assert 1 in store.verify(old, [0, 1, 2], 0.0)
        keys, codes, offsets, _counts = store.export()
        assert keys.tolist() == [0, 1, 2]
        assert codes[offsets[1] : offsets[2]].tolist() == [
            SYMBOL_CODES[symbol] for symbol in old
        ]
        unknown = old[:-1] + (UNKNOWN[1],)
        with pytest.raises(PhonemeError):
            store.verify(unknown, [0, 1, 2], 1.0)
        with ParallelMatchExecutor(
            EncodedNameTable.from_store(store), workers=1
        ) as executor:
            with pytest.raises(PhonemeError):
                executor.match(unknown, 1.0)

    def test_reader_holding_columns_from_before_a_growth(self, strings):
        """A reader that read the columns tuple, then lost the GIL while
        the writer appended, grew the code column and re-set a key,
        answers as of its tuple: every key written since is skipped,
        never read from the wrong array."""
        import copy

        from repro.core import MatchConfig
        from repro.core.sources import PhonemeStore

        costs = MatchConfig().cost_model()
        store = PhonemeStore(costs)
        store.update(enumerate(strings[:5]))
        paused = copy.copy(store)  # shares the strings, keeps the tuple
        capacity = len(store._columns[0])
        key = 5
        while len(store._columns[0]) == capacity:
            store[key] = strings[key]
            key += 1
        store[0] = strings[key]
        keys = list(range(key + 1))
        untouched = dict(enumerate(strings[1:5], start=1))
        for threshold in (0.25, 0.5, 1.0):
            for query in strings[1:5]:
                assert paused.verify(query, keys, threshold) == _scalar_keys(
                    untouched, query, keys, threshold, costs
                )

    def test_readers_consistent_while_writer_grows_and_compacts(
        self, strings
    ):
        """One writer grows the columns through several doublings and
        one compaction while four readers verify, lock-free: no reader
        fails, each answer keeps every match present before the writer
        started, and a key being rewritten answers for one of its
        versions, never a mix."""
        import sys
        import threading

        from repro.core import MatchConfig
        from repro.core.sources import PhonemeStore

        costs = MatchConfig().cost_model()
        store = PhonemeStore(costs)
        base = 20
        store.update(enumerate(strings[:base]))
        compactions = []
        compact = store._compact
        store._compact = lambda: (compactions.append(1), compact())[1]
        total = len(strings)
        versions = {
            key: (strings[key], strings[key - base])
            for key in range(base, total)
        }
        keys = list(range(total + 10))
        queries = strings[:base:4]
        threshold = 0.5
        before = {
            query: store.verify(query, keys, threshold) for query in queries
        }
        allowed = {
            query: set(before[query])
            | {
                key
                for key, pair in versions.items()
                if any(
                    _scalar_keys({key: p}, query, [key], threshold, costs)
                    for p in pair
                )
            }
            for query in queries
        }
        assert any(before.values())
        capacities = [len(store._columns[0])]
        errors: list = []
        writer_done = threading.Event()

        def writer():
            try:
                for key in range(base, total):
                    store[key] = versions[key][0]
                    capacities.append(len(store._columns[0]))
                for key in range(base, total):
                    store[key] = versions[key][1]
                for key in range(base, total):
                    store.pop(key)
            except Exception as exc:  # noqa: BLE001 - reported below
                errors.append(exc)
            finally:
                writer_done.set()

        def reader(offset):
            try:
                rounds = 0
                while not writer_done.is_set() or rounds < 2:
                    for query in queries[offset::4]:
                        got = store.verify(query, keys, threshold)
                        assert got == sorted(got)
                        assert set(before[query]) <= set(got), query
                        assert set(got) <= allowed[query], query
                    rounds += 1
            except Exception as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        threads = [threading.Thread(target=writer)] + [
            threading.Thread(target=reader, args=(offset,))
            for offset in range(4)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads mid-write, often
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors, errors
        assert len(set(capacities)) >= 4  # three doublings or more
        assert compactions
        assert {q: store.verify(q, keys, threshold) for q in queries} == before


def test_store_and_snapshot_reopen_stay_numpy_free(tmp_path):
    """Building, writing and ``update``-ing a store, and reopening an
    accelerator from a snapshot, never import numpy: a restoring server
    does not pay numpy's import before it is ready."""
    import subprocess
    import sys
    import textwrap

    from repro.core import LexEqualMatcher, create_phonetic_accelerator
    from repro.core.integration import install_lexequal
    from repro.minidb.schema import Column
    from repro.minidb.values import SqlType
    from repro.storage import open_database

    matcher = LexEqualMatcher()
    db = open_database(str(tmp_path), matcher=matcher, sync=False)
    install_lexequal(db, matcher)
    db.create_table(
        "names",
        [
            Column("id", SqlType.INTEGER, nullable=False),
            Column("name", SqlType.TEXT),
        ],
    )
    for i, name in enumerate(["Nehru", "Gandhi", "Bose", "नेहरू", "Patel"]):
        db.insert("names", (i, name))
    create_phonetic_accelerator(db, "names", "name", matcher)
    db.analyze()
    db.checkpoint()
    db.storage.close()
    script = textwrap.dedent(
        f"""
        import sys

        from repro import obs
        from repro.core import LexEqualMatcher, MatchConfig
        from repro.core.sources import PhonemeStore
        from repro.phonetics.parse import parse_ipa
        from repro.storage import open_database

        store = PhonemeStore(MatchConfig().cost_model())
        store[0] = parse_ipa("neːɦruː")
        store.update({{1: ("k", "a"), 2: ("b", "o", "s")}})
        store[0] = ("n", "e")
        store.pop(2)
        obs.enable()
        db = open_database({str(tmp_path)!r}, matcher=LexEqualMatcher())
        accelerator = db.accelerator_for("names", "name")
        assert len(accelerator.keyed.store) == 5
        assert obs.snapshot()["counters"]["storage.accelerator.attached"] == 1
        db.storage.close()
        assert "numpy" not in sys.modules, "numpy imported"
        """
    )
    import os

    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


# ------------------------------------ parallel path over the store's columns


class TestParallelPathOneEncoding:
    """The parallel executor's table is a gather of ``PhonemeStore``'s
    code columns, every stored string a row, so the parallel path equals
    the naive scan, including across writes between queries."""

    @pytest.fixture(scope="class")
    def items(self):
        from repro.data.generator import generate_performance_dataset
        from repro.data.lexicon import build_lexicon

        return generate_performance_dataset(build_lexicon(), 90)

    def test_export_equals_symbol_codes_of_live_strings(self, items):
        from repro.core import MatchConfig
        from repro.core.sources import PhonemeStore
        from repro.parallel import EncodedNameTable
        from repro.phonetics.inventory import SYMBOL_CODES
        from repro.phonetics.parse import parse_ipa

        strings = [parse_ipa(item.ipa) for item in items]
        rng = random.Random(SEED + 11)
        store = PhonemeStore(MatchConfig().cost_model())
        stored: dict = {}
        compactions = []
        compact = store._compact
        store._compact = lambda: (compactions.append(1), compact())[1]
        for step in range(500):
            key = rng.randrange(70)
            if rng.random() < 0.6:
                store[key] = stored[key] = rng.choice(strings)
            else:
                assert store.pop(key, None) == stored.pop(key, None)
            if step % 20:
                continue
            table = EncodedNameTable.from_store(store)
            inside = sorted(stored)
            assert table.ids.tolist() == inside
            assert table.codes.dtype == np.int64
            assert table.codes.tolist() == [
                SYMBOL_CODES[symbol] for key in inside for symbol in stored[key]
            ]
            assert table.offsets.tolist() == np.cumsum(
                [0] + [len(stored[key]) for key in inside]
            ).tolist()
            assert table.writes == store.writes
        assert compactions

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("name", sorted(PIPELINE_CONFIGS))
    def test_strategy_equals_naive(self, items, name, workers):
        from repro.core import LexEqualMatcher, MatchConfig, NameCatalog
        from repro.core import NaiveUdfStrategy
        from repro.parallel import ParallelStrategy

        catalog = NameCatalog(
            LexEqualMatcher(MatchConfig(**PIPELINE_CONFIGS[name]))
        )
        for item in items[:60]:
            catalog.add(item.name, item.language, ipa=item.ipa)
        naive = NaiveUdfStrategy(catalog)
        first = catalog.record(0)
        queries = [
            (first.name, first.language, ()),
            (first.name, first.language, ("hindi", "tamil")),
            (catalog.record(7).name, catalog.record(7).language, ()),
        ]

        def answers(strategy):
            selects = [
                [r.id for r in strategy.select(*query)] for query in queries
            ]
            joins = [
                [(a.id, b.id) for a, b in strategy.join(cross_language_only=c)]
                for c in (True, False)
            ]
            return selects, joins

        with ParallelStrategy(catalog, workers=workers) as parallel:
            assert answers(parallel) == answers(naive)
            # Writes between queries: more rows.
            for item in items[60:]:
                catalog.add(item.name, item.language, ipa=item.ipa)
            expected = answers(naive)
            assert answers(parallel) == expected
            assert 0 in expected[0][0]
            assert len(parallel.executor().table) == len(catalog)

    @pytest.mark.parametrize("name", sorted(PIPELINE_CONFIGS))
    def test_accelerator_equals_unaccelerated_scan(self, accel_names, name):
        from repro import Database, install_lexequal
        from repro.core import LexEqualMatcher, MatchConfig
        from repro.core import create_phonetic_accelerator

        matcher = LexEqualMatcher(MatchConfig(**PIPELINE_CONFIGS[name]))
        db = Database()
        install_lexequal(db, matcher)
        holder = []
        _load_names(
            db,
            accel_names[:80],
            lambda: holder.append(
                create_phonetic_accelerator(
                    db, "names", "name", matcher, method="parallel", workers=2
                )
            ),
        )
        queries = [(accel_names[0], ""), (accel_names[5], "")]

        def both():
            accelerated = _answers(db, queries)
            accelerator = holder.pop()
            accelerator.drop()
            plain = _answers(db, queries)
            holder.append(
                create_phonetic_accelerator(
                    db, "names", "name", matcher, method="parallel", workers=2
                )
            )
            return accelerated, plain

        try:
            accelerated, plain = both()
            assert accelerated == plain
            # A first query built the executor; writes follow.
            _answers(db, queries)
            rowid = db.insert("names", (900, accel_names[5]))
            db.insert("names", (901, accel_names[0]))
            db.delete_row("names", rowid - 3)
            assert holder[0]._executor is not None
            accelerated = _answers(db, queries)
            assert rowid in holder[0]._executor.table.ids.tolist()
            holder[0].drop()
            holder.clear()
            plain = _answers(db, queries)
            assert accelerated == plain
            assert (900,) in plain[accel_names[5], ""]
            assert (901,) in plain[accel_names[0], ""]
        finally:
            for accelerator in holder:
                accelerator.drop()
