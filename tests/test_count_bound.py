"""The class-count lower bound the batch kernel prunes with.

``batch_edit_distances_within_encoded`` drops a candidate before its DP
when ``max(Σ wq·(hq − hc)⁺, Σ wc·(hc − hq)⁺)`` — per-class symbol
counts of query and candidate, weighted by the cheapest operation that
moves a symbol out of its class — exceeds the candidate's budget.  The
bound must never exceed the exact distance, for the derived partition
and for any coarsening of it, under every cost-model shape; pruning
with it must leave every distance and decision equal to the scalar
``edit_distance_within``; and rounding may only ever keep a pair.

The counts a ``PhonemeStore`` writes at insert (and ships to pool
workers) must equal a from-scratch recount after any write history, and
must never wrap; the partition must equal a reference union-find.
"""

from __future__ import annotations

import random
from collections import Counter
from types import SimpleNamespace

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from repro import obs
from repro.core.config import MatchConfig
from repro.core.sources import PhonemeStore, _encoded_costs
from repro.matching.batch import (
    EncodedCosts,
    batch_edit_distances_within_encoded,
    batch_edit_distances_within_runs,
    class_weights,
    count_bounds,
)
from repro.matching.costs import CostModel, LevenshteinCost, count_classes
from repro.matching.editdist import edit_distance_within
from repro.parallel.table import EncodedNameTable
from repro.phonetics.inventory import SYMBOL_CODES

SYMBOLS = list(SYMBOL_CODES)

#: The five cost-model shapes: classical, the paper's clustered
#: defaults, free intra-cluster substitution, classical weak indels,
#: classical vowel-cross substitution.
COST_MODELS = {
    "levenshtein": LevenshteinCost(),
    "default": MatchConfig().cost_model(),
    "intra-0": MatchConfig(intra_cluster_cost=0.0).cost_model(),
    "weak-indel-1": MatchConfig(weak_indel_cost=1.0).cost_model(),
    "vowel-cross-1": MatchConfig(vowel_cross_cost=1.0).cost_model(),
}
cost_models = st.sampled_from(list(COST_MODELS.values()))


@st.composite
def string_sets(draw, max_strings=6):
    """Code strings (empties included) over one small random symbol
    pool, so queries and candidates share classes often."""
    pool = draw(
        st.lists(
            st.integers(0, len(SYMBOLS) - 1), min_size=1, max_size=6
        )
    )
    strings = st.lists(st.sampled_from(pool), max_size=8)
    return draw(st.lists(strings, min_size=2, max_size=max_strings))


def _csr(strings):
    offsets = np.zeros(len(strings) + 1, dtype=np.int64)
    np.cumsum([len(s) for s in strings], out=offsets[1:])
    codes = np.array([c for s in strings for c in s], dtype=np.int64)
    return codes, offsets


def _codes(phonemes):
    return [SYMBOL_CODES[symbol] for symbol in phonemes]


def _recount(tables, strings):
    """Per-class symbol counts of code strings, counted one by one."""
    hist = np.zeros((len(strings), len(tables.wq)), dtype=np.int64)
    for row, string in zip(hist, strings):
        for symbol in string:
            row[tables.classes[symbol]] += 1
    return hist


def _bounds(tables, q, candidates):
    """The bound over a from-scratch recount: the stored counts' oracle."""
    return count_bounds(
        np.asarray(q, dtype=np.int64), _recount(tables, candidates), tables
    )


def _exact(encoded, q, candidates):
    codes, offsets = _csr(candidates)
    return batch_edit_distances_within_encoded(
        np.asarray(q, dtype=np.int64), codes, offsets, encoded, np.inf
    )


def _reference_bound(tables, q, c):
    """The bound, spelled out per class."""
    hq = Counter(tables.classes[s] for s in q)
    hc = Counter(tables.classes[s] for s in c)
    return max(
        sum(tables.wq[k] * max(hq[k] - hc[k], 0) for k in hq | hc),
        sum(tables.wc[k] * max(hc[k] - hq[k], 0) for k in hq | hc),
    )


class TestDerivation:
    def test_default_costs_give_clustered_classes(self):
        encoded = _encoded_costs(MatchConfig().cost_model())
        assert len(encoded.wq) == 15
        assert set(encoded.wq) | set(encoded.wc) == {0.5, 1.0}

    def test_classical_costs_give_bag_distance(self):
        encoded = _encoded_costs(LevenshteinCost())
        assert len(encoded.wq) == len(SYMBOLS)
        assert set(encoded.wq) == set(encoded.wc) == {1.0}

    @pytest.mark.parametrize("name", list(COST_MODELS))
    def test_attached_tables_derive_the_same_bound(self, name):
        store = PhonemeStore(COST_MODELS[name])
        store[0] = ("a",)
        table = EncodedNameTable.from_store(store)
        encoded = table.encoded
        segment, descriptor = table.share()
        try:
            attached, mapping = EncodedNameTable.attach(descriptor)
            try:
                got = attached.encoded
                assert np.array_equal(got.classes, encoded.classes)
                assert np.array_equal(got.wq, encoded.wq)
                assert np.array_equal(got.wc, encoded.wc)
            finally:
                del attached, got
                mapping.close()
        finally:
            segment.unlink()


def _reference_partition(costs):
    """Classes of "``sub(a, b) < min_indel`` either way", by a plain
    union-find over the compiled cost matrix, numbered in order of each
    class's first symbol."""
    sub = _encoded_costs(costs).sub
    near = (sub < costs.min_indel_cost()) | (sub.T < costs.min_indel_cost())
    parent = list(range(len(SYMBOLS)))

    def find(i):
        while parent[i] != i:
            i = parent[i]
        return i

    for a, b in zip(*np.nonzero(near)):
        parent[find(a)] = find(b)
    number = {}
    return [
        number.setdefault(find(i), len(number)) for i in range(len(SYMBOLS))
    ]


class TestPartition:
    @pytest.mark.parametrize("name", list(COST_MODELS))
    def test_equals_reference_union_find(self, name):
        costs = COST_MODELS[name]
        want = _reference_partition(costs)
        assert list(count_classes(costs, tuple(SYMBOLS))) == want
        assert _encoded_costs(costs).classes.tolist() == want
        assert PhonemeStore(costs).width == max(want) + 1

    @pytest.mark.parametrize("name", list(COST_MODELS))
    def test_attached_table_reads_the_parents_counts(self, name):
        store = PhonemeStore(COST_MODELS[name])
        store.update({0: ("a", "b", "a"), 2: ("s",), 3: ()})
        table = EncodedNameTable.from_store(store)
        segment, descriptor = table.share()
        try:
            attached, mapping = EncodedNameTable.attach(descriptor)
            try:
                got = attached.class_counts
                assert np.array_equal(got, table.class_counts)
                assert got.tolist() == _recount(
                    table.encoded, [_codes(store[k]) for k in (0, 2, 3)]
                ).tolist()
            finally:
                del attached, got
                mapping.close()
        finally:
            segment.unlink()


class TestSoundness:
    @settings(max_examples=300, deadline=None)
    @given(strings=string_sets(), costs=cost_models)
    def test_bound_never_exceeds_exact_distance(self, strings, costs):
        encoded = _encoded_costs(costs)
        q, candidates = strings[0], strings[1:]
        bounds = _bounds(encoded, q, candidates)
        assert (bounds <= _exact(encoded, q, candidates)).all()

    @settings(max_examples=300, deadline=None)
    @given(strings=string_sets(), costs=cost_models)
    def test_batched_bound_is_the_per_class_formula(self, strings, costs):
        encoded = _encoded_costs(costs)
        q, candidates = strings[0], strings[1:]
        assert _bounds(encoded, q, candidates).tolist() == [
            _reference_bound(encoded, q, c) for c in candidates
        ]

    @settings(max_examples=200, deadline=None)
    @given(
        strings=string_sets(),
        costs=cost_models,
        singletons=st.booleans(),
        merge=st.lists(
            st.integers(0, 3), min_size=len(SYMBOLS), max_size=len(SYMBOLS)
        ),
    )
    def test_any_coarser_partition_is_sound(
        self, strings, costs, singletons, merge
    ):
        """Merging classes at random (from the derived partition, or
        from singletons: every partition) keeps the bound sound."""
        encoded = _encoded_costs(costs)
        base = np.arange(len(SYMBOLS)) if singletons else encoded.classes
        classes = np.asarray(merge)[base]
        wq, wc = class_weights(
            classes, encoded.sub, encoded.ins, encoded.dele
        )
        tables = SimpleNamespace(classes=classes, wq=wq, wc=wc)
        q, candidates = strings[0], strings[1:]
        bounds = _bounds(tables, q, candidates)
        assert (bounds <= _exact(encoded, q, candidates)).all()

    def test_each_side_prunes(self):
        encoded = _encoded_costs(MatchConfig().cost_model())
        p, b, s, a = (SYMBOL_CODES[sym] for sym in ("p", "b", "s", "a"))
        # p and b share a cluster: no bound between them.
        assert _bounds(encoded, [p], [[b]]).tolist() == [0.0]
        # Query-heavy, then candidate-heavy: each side carries the max
        # (a vowel leaves its class for 0.5, a stop or s for 1).
        assert _bounds(encoded, [p, b, s, a], [[p]]).tolist() == [2.5]
        assert _bounds(encoded, [p, a], [[b, b, s]]).tolist() == [2.0]


class TestPrunedKernel:
    def _battery(self, rng, costs):
        """Queries against random and lightly edited candidates."""
        cases = []
        for _ in range(24):
            q = [rng.randrange(len(SYMBOLS)) for _ in range(rng.randint(0, 9))]
            candidates = []
            for _ in range(40):
                if q and rng.random() < 0.5:
                    c = list(q)
                    for _ in range(rng.randint(0, 2)):
                        c[rng.randrange(len(c))] = rng.randrange(len(SYMBOLS))
                else:
                    c = [
                        rng.randrange(len(SYMBOLS))
                        for _ in range(rng.randint(0, 9))
                    ]
                candidates.append(c)
            cases.append((q, candidates, rng.choice([0.1, 0.25, 0.35, 0.5])))
        return cases

    @pytest.mark.parametrize("name", list(COST_MODELS))
    def test_equals_scalar_kernel_where_the_bound_prunes(self, name):
        costs = COST_MODELS[name]
        encoded = _encoded_costs(costs)
        rng = random.Random(20040314)
        obs.disable()
        try:
            obs.enable()
            dp = feasible = 0
            for q, candidates, threshold in self._battery(rng, costs):
                lens = np.array([len(c) for c in candidates])
                budgets = threshold * np.minimum(len(q), lens)
                codes, offsets = _csr(candidates)
                counts = {"dp": 0}
                got = batch_edit_distances_within_encoded(
                    np.asarray(q, dtype=np.int64),
                    codes,
                    offsets,
                    encoded,
                    budgets,
                    counts=counts,
                )
                dp += counts["dp"]
                feasible += int(
                    (np.abs(lens - len(q)) * encoded.min_indel <= budgets).sum()
                )
                for c, budget, distance in zip(candidates, budgets, got):
                    want = edit_distance_within(
                        [SYMBOLS[s] for s in q],
                        [SYMBOLS[s] for s in c],
                        budget,
                        costs,
                    )
                    assert distance == (np.inf if want is None else want)
            pruned = obs.snapshot()["counters"]["matching.batch.bound_pruned"]
        finally:
            obs.disable()
        assert pruned > 0
        assert dp + pruned == feasible

    def test_infinite_budgets_skip_the_bound(self):
        encoded = _encoded_costs(MatchConfig().cost_model())
        obs.disable()
        try:
            obs.enable()
            _exact(encoded, [1, 2, 3], [[40, 41], [], [7, 8, 9, 10]])
            counters = obs.snapshot()["counters"]
        finally:
            obs.disable()
        assert "matching.batch.bound_pruned" not in counters


class _DecimalIndels(CostModel):
    """Per-symbol indel costs that are not binary fractions, so sums
    taken in different orders round differently."""

    def __init__(self, indel):
        self.indel = indel

    def insert(self, symbol):
        return self.indel[symbol]

    def delete(self, symbol):
        return self.indel[symbol]

    def substitute(self, a, b):
        return 0.0 if a == b else 5.0

    def min_op_cost(self):
        return min(self.indel.values())

    def min_indel_cost(self):
        return min(self.indel.values())


@pytest.mark.parametrize(
    "indel, query, candidate",
    [
        (
            {"a": 0.3, "c": 0.2, "d": 0.6, "g": 0.2, "h": 0.1},
            "hgdacachdg",
            "cach",
        ),
        (
            {"a": 0.3, "c": 0.1, "d": 0.3, "g": 0.7, "h": 0.6},
            "hcagacad",
            "caa",
        ),
        ({"a": 0.7, "b": 0.3, "c": 0.6, "e": 0.1, "g": 0.2}, "ccgbeag", "g"),
    ],
)
def test_rounding_only_ever_keeps_a_pair(indel, query, candidate):
    """The bound equals the distance here, but sums in another order:
    computed, it lands above the DP's own distance.  At a budget of
    exactly that distance the pair must still be accepted."""
    encoded = EncodedCosts(_DecimalIndels(indel), sorted(indel))
    q, c = encoded.encode(query), encoded.encode(candidate)
    distance = _exact(encoded, q, [c])[0]
    assert _bounds(encoded, q, [c])[0] > distance
    codes, offsets = _csr([c])
    got = batch_edit_distances_within_encoded(
        q, codes, offsets, encoded, distance
    )
    assert got[0] == distance


# ----------------------------------------------- counts stored at insert


def _stored_rows(store, keys):
    """The class-count rows a store's reader sees for ``keys``."""
    _, got_keys, clens, _, rows = store._read(np.asarray(keys, np.int64))
    assert got_keys.tolist() == list(keys) and (clens >= 0).all()
    return rows


def _table_distances(table, q, budgets, counts=None):
    """The kernel over a gathered table, bounded by its stored counts."""
    return batch_edit_distances_within_runs(
        q,
        table.codes,
        table.offsets[:-1],
        table.lens,
        table.encoded,
        budgets,
        counts=counts,
        class_counts=table.class_counts,
        class_totals=table.class_totals,
    )


symbol_strings = st.lists(st.sampled_from(SYMBOLS[:12]), max_size=9).map(
    tuple
)
write_ops = st.lists(
    st.one_of(
        st.tuples(st.just("set"), st.integers(0, 11), symbol_strings),
        st.tuples(st.just("pop"), st.integers(0, 11), st.none()),
        st.tuples(
            st.just("update"),
            st.dictionaries(st.integers(0, 11), symbol_strings, max_size=4),
            st.none(),
        ),
        st.tuples(st.just("compact"), st.none(), st.none()),
        st.tuples(
            st.just("load"),
            st.dictionaries(st.integers(0, 11), symbol_strings, max_size=6),
            st.none(),
        ),
    ),
    max_size=40,
)


class TestStoredCounts:
    """What ``PhonemeStore._write`` stores equals a from-scratch recount,
    and so does every bound and kernel answer taken over it."""

    @settings(max_examples=150, deadline=None)
    @given(
        history=write_ops,
        costs=cost_models,
        queries=st.lists(symbol_strings, min_size=1, max_size=3),
    )
    def test_stored_bound_equals_recount(self, history, costs, queries):
        store = PhonemeStore(costs)
        stored = {}
        for op, key, phonemes in history:
            if op == "set":
                store[key] = stored[key] = phonemes
            elif op == "pop":
                assert store.pop(key, None) == stored.pop(key, None)
            elif op == "update":
                store.update(key)
                stored.update(key)
            elif op == "load":
                # As a restore does it: one bulk load of a whole dict.
                store.load(key)
                stored = dict(key)
            else:
                store._compact()
        encoded = _encoded_costs(costs)
        keys = sorted(stored)
        strings = [_codes(stored[k]) for k in keys]
        rows = _stored_rows(store, keys)
        assert rows.tolist() == _recount(encoded, strings).tolist()
        table = EncodedNameTable.from_store(store)
        assert table.ids.tolist() == keys
        assert table.class_counts.tolist() == rows.tolist()
        for query in queries:
            q = np.asarray(_codes(query), dtype=np.int64)
            assert count_bounds(q, rows, encoded).tolist() == _bounds(
                encoded, q, strings
            ).tolist()
            lens = np.array([len(s) for s in strings], dtype=np.int64)
            budgets = 0.25 * np.minimum(len(q), lens)
            got, want = {"dp": 0}, {"dp": 0}
            with_stored = _table_distances(table, q, budgets, got)
            recounted = batch_edit_distances_within_encoded(
                q, table.codes, table.offsets, encoded, budgets,
                counts=want,
            )
            assert with_stored.tolist() == recounted.tolist()
            assert got == want
            assert store.verify(query, keys, 0.25) == [
                k for k, d in zip(keys, recounted) if d != np.inf
            ]

    @pytest.mark.parametrize("name", list(COST_MODELS))
    def test_counts_past_a_byte_never_wrap(self, name):
        """A count above 255 widens the column instead of wrapping: a
        wrapped count would over-state the bound and dismiss a match."""
        costs = COST_MODELS[name]
        store = PhonemeStore(costs)
        store.update({0: ("a",) * 3, 1: ("s", "a")})
        columns = store._columns
        long = ("a",) * 300 + ("s",)
        store[2] = long
        assert store._columns[3].typecode != "B"
        assert columns[3].typecode == "B"  # a reader's old tuple stands
        encoded = _encoded_costs(costs)
        rows = _stored_rows(store, [0, 1, 2])
        assert rows.tolist() == _recount(
            encoded, [_codes(store[k]) for k in (0, 1, 2)]
        ).tolist()
        assert rows[2].max() == 300
        assert store.verify(long, [0, 1, 2], 0.25) == [2]
        near = ("a",) * 299 + ("s",)
        assert store.verify(near, [2], 0.25) == [2]
        table = EncodedNameTable.from_store(store)
        assert table.class_counts[2].max() == 300
        q = np.asarray(_codes(near), dtype=np.int64)
        assert np.isfinite(_table_distances(table, q, 0.25 * 300)[2])
        # Later writes land in the widened column.
        store[3] = ("a", "s")
        assert _stored_rows(store, [3]).tolist() == _recount(
            encoded, [_codes(("a", "s"))]
        ).tolist()


class TestVerifyAcrossBlocks:
    """A ``verify`` whose candidates span several kernel blocks weighs
    their class counts once, not once per block, and still answers
    exactly as the scalar kernel does."""

    @pytest.mark.parametrize("name", ["levenshtein", "default"])
    def test_every_block_reads_one_totals_array(self, name, monkeypatch):
        from repro.matching import batch

        costs = COST_MODELS[name]
        rng = random.Random(20040316)
        query = tuple(rng.choice(SYMBOLS) for _ in range(6))
        store = PhonemeStore(costs)
        for key in range(240):
            if key % 2:
                phonemes = list(query)
                for _ in range(rng.randint(0, 2)):
                    phonemes[rng.randrange(6)] = rng.choice(SYMBOLS)
            else:
                phonemes = [rng.choice(SYMBOLS) for _ in range(rng.randint(5, 7))]
            store[key] = tuple(phonemes)
        keys = list(range(240))
        want = [
            key
            for key in keys
            if edit_distance_within(
                query,
                store[key],
                0.25 * min(len(query), len(store[key])),
                costs,
            )
            is not None
        ]

        totals = []
        real = batch.count_bounds

        def spy(q, counts, encoded, rows=None, given_totals=None):
            totals.append(given_totals)
            return real(q, counts, encoded, rows, given_totals)

        monkeypatch.setattr(batch, "PADDED_BLOCK", 16)
        monkeypatch.setattr(batch, "count_bounds", spy)
        assert store.verify(query, keys, 0.25) == want
        assert want
        assert len(totals) >= 3
        assert all(isinstance(t, np.ndarray) for t in totals)
        assert len({id(t) for t in totals}) == 1
