"""Unit tests for the articulatory-embedding tier (DESIGN.md §12).

The property suite proves the lower-bound and quantization inequalities
on generated strings; this file pins the concrete API contracts — model
shape, CSR batch encoding, index maintenance, snapshot round-trips,
block chunking and deadline cancellation.
"""

from __future__ import annotations

import random
import time

import numpy as np
import pytest

from repro import deadline
from repro.errors import DeadlineExceededError, MatchConfigError
from repro.matching.batch import EncodedCosts
from repro.matching.costs import ClusteredCost, LevenshteinCost
from repro.matching.embed import (
    DIM,
    QUANT_SCALE,
    EmbeddingModel,
    QuantizedMatrixIndex,
    quantize,
    quantized_radius,
)

SEED = 20040314

SYMBOLS = [
    "p", "b", "t", "d", "ʈ", "k", "g", "tʃ", "dʒ", "s", "z", "ʃ",
    "m", "n", "ŋ", "r", "l", "j", "w", "v", "h", "f",
    "a", "e", "i", "o", "u", "ə", "ɛ", "ɔ",
]


def _model(costs=None) -> EmbeddingModel:
    return EmbeddingModel(EncodedCosts(costs or ClusteredCost(0.25), SYMBOLS))


def _strings(rng: random.Random, count: int, max_len: int = 10):
    return [
        tuple(
            rng.choice(SYMBOLS)
            for _ in range(rng.randint(1, max_len))
        )
        for _ in range(count)
    ]


class TestEmbeddingModel:
    def test_dim_is_prefix_plus_histogram_groups(self):
        model = _model()
        # The clustered model histograms per phoneme cluster, so the
        # width is the fixed articulatory prefix plus one dimension per
        # cluster present in the symbol pool.
        assert model.dim > DIM
        assert model.vectors.shape == (len(SYMBOLS), model.dim)

    def test_levenshtein_histograms_per_symbol(self):
        # Without clustering every symbol is its own histogram group.
        model = _model(LevenshteinCost())
        assert model.dim == DIM + len(SYMBOLS)

    def test_empty_string_embeds_to_zero(self):
        model = _model()
        assert not model.encode(()).any()

    def test_unknown_symbol_raises(self):
        model = _model()
        with pytest.raises(KeyError):
            model.encode(("q-not-a-phoneme",))

    def test_encode_many_matches_scalar_encode(self):
        rng = random.Random(SEED)
        model = _model()
        strings = _strings(rng, 40) + [()]
        codes = np.concatenate(
            [model.encoded.encode(s) for s in strings]
        ).astype(np.int64)
        offsets = np.zeros(len(strings) + 1, dtype=np.int64)
        np.cumsum([len(s) for s in strings], out=offsets[1:])
        batch = model.encode_many(codes, offsets)
        for row, string in zip(batch, strings):
            assert np.array_equal(row, model.encode(string)), string

    def test_lower_bound_constant_default_model(self):
        # The enumerated constant for the paper's default clustered
        # costs over this 30-symbol pool; a change means the embedding
        # geometry or the cost model moved, and the lossless admission
        # radius moves with it.
        assert _model().lower_bound_constant() == pytest.approx(4.2)

    def test_lower_bound_constant_cached_and_positive(self):
        model = _model(LevenshteinCost())
        c = model.lower_bound_constant()
        assert c >= 1.0
        assert model.lower_bound_constant() == c

    def test_zero_cost_symbols_collapse(self):
        # intra_cluster_cost=0 reproduces Soundex: symbols sharing a
        # cluster substitute for free, so they must share one embedding
        # (a free edit moves the embedding by exactly zero) and the
        # constant must still be finite.
        model = _model(ClusteredCost(0.0))
        costs = ClusteredCost(0.0)
        free_pair = None
        for a in SYMBOLS:
            for b in SYMBOLS:
                if a != b and costs.substitute(a, b) == 0.0:
                    free_pair = (a, b)
                    break
            if free_pair:
                break
        assert free_pair is not None
        va = model.encode((free_pair[0],))
        vb = model.encode((free_pair[1],))
        assert np.array_equal(va, vb)
        assert np.isfinite(model.lower_bound_constant())


class TestQuantization:
    def test_quantize_saturates_to_int8(self):
        big = np.array([[1e6, -1e6, 0.0]])
        q = quantize(big)
        assert q.dtype == np.int8
        assert q.tolist() == [[127, -127, 0]]

    def test_quantized_radius_accepts_arrays(self):
        radii = np.array([0.5, 1.0, 2.0])
        got = quantized_radius(radii, 36)
        assert np.array_equal(got, QUANT_SCALE * radii + 36)


class TestQuantizedMatrixIndex:
    @pytest.fixture()
    def setup(self):
        rng = random.Random(SEED + 1)
        model = _model()
        strings = _strings(rng, 80)
        vectors = np.stack([model.encode(s) for s in strings])
        query = model.encode(rng.choice(strings))
        return model, vectors, query

    def test_search_is_superset_of_float_radius(self, setup):
        _, vectors, query = setup
        index = QuantizedMatrixIndex.from_vectors(vectors)
        for radius in (0.0, 0.5, 1.5, 4.0):
            got = set(index.search(query, radius).tolist())
            exact = {
                i
                for i, vec in enumerate(vectors)
                if np.abs(vec - query).sum() <= radius
            }
            assert exact <= got, radius

    def test_append_delete_and_len(self, setup):
        _, vectors, query = setup
        index = QuantizedMatrixIndex.from_vectors(vectors)
        assert len(index) == len(vectors)
        position = index.append(query)
        assert len(index) == len(vectors) + 1
        assert position in index.search(query, 0.0).tolist()
        index.delete(position)
        index.delete(position)  # idempotent
        assert len(index) == len(vectors)
        assert position not in index.search(query, 0.0).tolist()

    def test_state_round_trip(self, setup):
        _, vectors, query = setup
        index = QuantizedMatrixIndex.from_vectors(vectors)
        index.delete(3)
        restored = QuantizedMatrixIndex.from_state(index.state())
        assert restored.scale == index.scale
        for radius in (0.5, 2.0):
            assert np.array_equal(
                restored.search(query, radius),
                index.search(query, radius),
            )

    def test_block_boundary_identical(self, setup, monkeypatch):
        from repro.matching import embed as embed_mod

        _, vectors, query = setup
        index = QuantizedMatrixIndex.from_vectors(vectors)
        unblocked = index.search(query, 2.0)
        monkeypatch.setattr(embed_mod, "EMBED_BLOCK", 7)
        assert np.array_equal(index.search(query, 2.0), unblocked)

    def test_search_cancels_on_deadline(self, setup):
        _, vectors, query = setup
        index = QuantizedMatrixIndex.from_vectors(vectors)
        with deadline.deadline_scope(1e-4):
            time.sleep(0.01)
            with pytest.raises(DeadlineExceededError):
                index.search(query, 2.0)


class TestLowerBoundGuards:
    def test_nonpositive_indel_cost_rejected(self):
        class FreeIndel(ClusteredCost):
            def insert(self, symbol):
                return 0.0

            def delete(self, symbol):
                return 0.0

            def min_indel_cost(self):
                return 0.0

        model = EmbeddingModel(EncodedCosts(FreeIndel(0.25), SYMBOLS))
        with pytest.raises(MatchConfigError):
            model.lower_bound_constant()
