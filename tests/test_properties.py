"""Hypothesis property tests over the core data structures and invariants.

These encode the guarantees DESIGN.md calls out:

* the DP edit distance is symmetric, and a (pseudo)metric under the
  cost models whose operations pass the metric-axiom checker; the
  banded variant agrees with it inside the budget;
* the batch (numpy) DP is bit-identical to the scalar DP;
* the q-gram filters never reject a pair the UDF would accept
  (no-false-dismissal soundness), including in cluster space with
  fractional costs;
* the grouped phoneme key is invariant under intra-cluster substitution;
* TTP converters are deterministic and total over their scripts.
"""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.core.config import MatchConfig
from repro.matching.costs import ClusteredCost, LevenshteinCost
from repro.matching.editdist import edit_distance, edit_distance_within
from repro.matching.metric import check_metric_axioms
from repro.matching.qgrams import passes_filters
from repro.phonetics.clusters import default_clustering
from repro.phonetics.folding import fold_phonemes
from repro.phonetics.keys import grouped_key

# A representative symbol pool: stops, nasals, liquids, laryngeals, vowels.
SYMBOLS = [
    "p", "b", "t", "d", "ʈ", "k", "g", "tʃ", "dʒ", "s", "z", "ʃ",
    "m", "n", "ŋ", "r", "l", "j", "w", "v", "h", "f",
    "a", "e", "i", "o", "u", "ə", "ɛ", "ɔ",
]

phoneme_strings = st.lists(
    st.sampled_from(SYMBOLS), min_size=0, max_size=10
).map(tuple)

COST_MODELS = [
    LevenshteinCost(),
    ClusteredCost(0.25),
    ClusteredCost(0.5, weak_indel_cost=1.0, vowel_cross_cost=1.0),
    ClusteredCost(0.0),
    ClusteredCost(1.0, weak_indel_cost=0.5),
]
cost_models = st.sampled_from(COST_MODELS)
#: The models whose string distance is a metric over SYMBOLS: the
#: fractional weak-indel models let a strong phoneme be deleted more
#: cheaply through a weak cluster-mate (see repro.matching.metric).
metric_cost_models = st.sampled_from(
    [m for m in COST_MODELS if not check_metric_axioms(m, SYMBOLS)]
)


class TestEditDistanceMetric:
    @settings(max_examples=150, deadline=None)
    @given(a=phoneme_strings, b=phoneme_strings, costs=cost_models)
    def test_symmetry(self, a, b, costs):
        assert edit_distance(a, b, costs) == pytest.approx(
            edit_distance(b, a, costs)
        )

    @settings(max_examples=100, deadline=None)
    @given(a=phoneme_strings, costs=cost_models)
    def test_identity(self, a, costs):
        assert edit_distance(a, a, costs) == 0.0

    @settings(max_examples=80, deadline=None)
    @given(
        a=phoneme_strings,
        b=phoneme_strings,
        c=phoneme_strings,
        costs=metric_cost_models,
    )
    def test_triangle_inequality(self, a, b, c, costs):
        ab = edit_distance(a, b, costs)
        bc = edit_distance(b, c, costs)
        ac = edit_distance(a, c, costs)
        assert ac <= ab + bc + 1e-9

    @settings(max_examples=100, deadline=None)
    @given(a=phoneme_strings, b=phoneme_strings, costs=cost_models)
    def test_nonnegative_and_bounded(self, a, b, costs):
        d = edit_distance(a, b, costs)
        assert 0.0 <= d <= max(len(a), len(b))

    @settings(max_examples=150, deadline=None)
    @given(
        a=phoneme_strings,
        b=phoneme_strings,
        costs=cost_models,
        budget=st.floats(min_value=0.0, max_value=8.0, allow_nan=False),
    )
    def test_banded_agrees_with_full(self, a, b, costs, budget):
        full = edit_distance(a, b, costs)
        if abs(full - budget) < 1e-9:
            return  # knife-edge: inclusion depends on float rounding
        banded = edit_distance_within(a, b, budget, costs)
        if full < budget:
            assert banded is not None
            assert banded == pytest.approx(full)
        else:
            assert banded is None


class TestWithinCutoffSemantics:
    """The contract of ``edit_distance_within(a, b, cutoff)``.

    It returns a value iff the true distance is within the cutoff, the
    value is the true distance, acceptance is monotone in the cutoff,
    and the whole function is symmetric under symmetric cost models.
    (Arithmetic is exact — all shipped costs are binary fractions — so
    the properties hold with equality, no epsilon.)
    """

    @settings(max_examples=150, deadline=None)
    @given(
        a=phoneme_strings,
        b=phoneme_strings,
        costs=cost_models,
        cutoff=st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
    )
    def test_value_iff_true_distance_within(self, a, b, costs, cutoff):
        full = edit_distance(a, b, costs)
        got = edit_distance_within(a, b, cutoff, costs)
        if full <= cutoff:
            assert got == full
        else:
            assert got is None

    @settings(max_examples=120, deadline=None)
    @given(
        a=phoneme_strings,
        b=phoneme_strings,
        costs=cost_models,
        lo=st.floats(min_value=0.0, max_value=8.0, allow_nan=False),
        extra=st.floats(min_value=0.0, max_value=4.0, allow_nan=False),
    )
    def test_monotone_in_cutoff(self, a, b, costs, lo, extra):
        """Accepted at a cutoff => accepted (same value) at any larger."""
        at_lo = edit_distance_within(a, b, lo, costs)
        at_hi = edit_distance_within(a, b, lo + extra, costs)
        if at_lo is not None:
            assert at_hi == at_lo
        # And the contrapositive: rejected at the larger cutoff =>
        # rejected at the smaller.
        if at_hi is None:
            assert at_lo is None

    @settings(max_examples=120, deadline=None)
    @given(
        a=phoneme_strings,
        b=phoneme_strings,
        costs=cost_models,
        cutoff=st.floats(min_value=0.0, max_value=8.0, allow_nan=False),
    )
    def test_symmetric_for_symmetric_models(self, a, b, costs, cutoff):
        # Every shipped model is symmetric (asserted by the metric-axiom
        # suite), so the thresholded kernel must be too.
        assert edit_distance_within(
            a, b, cutoff, costs
        ) == edit_distance_within(b, a, cutoff, costs)

    @settings(max_examples=80, deadline=None)
    @given(a=phoneme_strings, costs=cost_models)
    def test_identity_accepted_at_zero(self, a, costs):
        assert edit_distance_within(a, a, 0.0, costs) == 0.0


class TestBatchAgreesWithScalar:
    @settings(max_examples=60, deadline=None)
    @given(
        query=phoneme_strings,
        candidates=st.lists(phoneme_strings, min_size=1, max_size=6),
        costs=cost_models,
    )
    def test_batch_identical(self, query, candidates, costs):
        import numpy as np

        from repro.matching.batch import EncodedCosts, batch_edit_distances

        encoded = EncodedCosts(costs, SYMBOLS)
        got = batch_edit_distances(query, candidates, encoded)
        expected = [edit_distance(query, c, costs) for c in candidates]
        assert np.allclose(got, expected)

    @settings(max_examples=60, deadline=None)
    @given(
        query=phoneme_strings,
        candidates=st.lists(phoneme_strings, min_size=1, max_size=6),
        costs=cost_models,
        threshold=st.sampled_from([0.0, 0.25, 0.35, 0.5, 1.0]),
    )
    def test_batch_within_identical(
        self, query, candidates, costs, threshold
    ):
        import numpy as np

        from repro.matching.batch import (
            EncodedCosts,
            batch_edit_distances_within,
        )

        encoded = EncodedCosts(costs, SYMBOLS)
        budgets = np.array(
            [threshold * min(len(query), len(c)) for c in candidates]
        )
        got = batch_edit_distances_within(
            query, candidates, encoded, budgets
        )
        for value, cand, budget in zip(got, candidates, budgets):
            full = edit_distance(query, cand, costs)
            if full <= budget:
                assert value == full
            else:
                assert value == np.inf


class TestQGramSoundness:
    @settings(max_examples=120, deadline=None)
    @given(
        a=phoneme_strings,
        b=phoneme_strings,
        threshold=st.sampled_from([0.1, 0.25, 0.33, 0.5]),
        intra=st.sampled_from([0.0, 0.25, 0.5, 1.0]),
        q=st.sampled_from([2, 3]),
    )
    def test_cluster_domain_filters_never_dismiss(
        self, a, b, threshold, intra, q
    ):
        """If LexEQUAL accepts (a, b), the cluster-space q-gram filters
        must pass — the invariant behind QGramStrategy == NaiveUdf."""
        config = MatchConfig(
            threshold=threshold, intra_cluster_cost=intra, q=q
        )
        costs = config.cost_model()
        budget = config.budget(len(a), len(b))
        if edit_distance(a, b, costs) > budget:
            return  # not a match; filters may do anything
        clustering = config.clustering
        mapped_a = tuple(str(c) for c in clustering.map_string(a))
        mapped_b = tuple(str(c) for c in clustering.map_string(b))
        k = config.max_operations(min(len(a), len(b)))
        assert passes_filters(mapped_a, mapped_b, k, q)

    @settings(max_examples=120, deadline=None)
    @given(
        a=phoneme_strings,
        b=phoneme_strings,
        threshold=st.sampled_from([0.1, 0.25, 0.33, 0.5]),
        q=st.sampled_from([2, 3]),
    )
    def test_phoneme_domain_filters_never_dismiss(self, a, b, threshold, q):
        config = MatchConfig(
            threshold=threshold,
            intra_cluster_cost=0.25,
            q=q,
            qgram_domain="phoneme",
        )
        costs = config.cost_model()
        budget = config.budget(len(a), len(b))
        if edit_distance(a, b, costs) > budget:
            return
        k = config.max_operations(min(len(a), len(b)))
        assert passes_filters(a, b, k, q)


class TestGroupedKeyInvariance:
    @settings(max_examples=120, deadline=None)
    @given(
        phonemes=st.lists(
            st.sampled_from(SYMBOLS), min_size=1, max_size=8
        ).map(tuple),
        position=st.integers(min_value=0, max_value=7),
        data=st.data(),
    )
    def test_intra_cluster_swap_preserves_key(
        self, phonemes, position, data
    ):
        from repro.phonetics.keys import _SKELETON_SKIP

        clustering = default_clustering()
        position = position % len(phonemes)
        original = phonemes[position]
        members = clustering.members(clustering.cluster_id(original))
        replacement = data.draw(st.sampled_from(list(members)))
        swapped = (
            phonemes[:position] + (replacement,) + phonemes[position + 1:]
        )
        assert grouped_key(phonemes, clustering, "full") == grouped_key(
            swapped, clustering, "full"
        )
        # The skeleton key also skips laryngeals, so its invariance only
        # covers swaps that keep skeleton membership (e.g. k <-> ʔ share
        # a cluster but only k is in the skeleton).
        if (original in _SKELETON_SKIP) == (replacement in _SKELETON_SKIP):
            assert grouped_key(
                phonemes, clustering, "skeleton"
            ) == grouped_key(swapped, clustering, "skeleton")

    @settings(max_examples=100, deadline=None)
    @given(phonemes=phoneme_strings)
    def test_key_deterministic_and_foldable(self, phonemes):
        assert grouped_key(phonemes) == grouped_key(phonemes)
        folded = fold_phonemes(phonemes)
        assert grouped_key(folded) == grouped_key(fold_phonemes(folded))


class TestEmbeddingPrefilterContract:
    """The articulatory-embedding prefilter's admission guarantees.

    DESIGN.md §12: the embedding distance lower-bounds the clustered
    edit distance (``|phi(s) - phi(t)|_1 <= c * d``) for the model's
    enumerated constant ``c``; quantization only ever *widens* the
    admitted set at the scaled radius (so the int8 fast path cannot
    lose a match the float path keeps); and index maintenance is
    reversible — insert followed by delete leaves search results
    exactly as they were.
    """

    @settings(max_examples=100, deadline=None)
    @given(a=phoneme_strings, b=phoneme_strings, costs=cost_models)
    def test_embedding_lower_bounds_edit_distance(self, a, b, costs):
        import numpy as np

        from repro.matching.batch import EncodedCosts
        from repro.matching.embed import EmbeddingModel

        model = EmbeddingModel(EncodedCosts(costs, SYMBOLS))
        emb = float(np.abs(model.encode(a) - model.encode(b)).sum())
        full = edit_distance(a, b, costs)
        c = model.lower_bound_constant()
        assert emb <= c * full + 1e-9, (a, b, emb, full, c)

    @settings(max_examples=100, deadline=None)
    @given(
        a=phoneme_strings,
        b=phoneme_strings,
        costs=cost_models,
        radius=st.floats(min_value=0.0, max_value=16.0, allow_nan=False),
    )
    def test_quantization_only_widens_admission(
        self, a, b, costs, radius
    ):
        """Admitted in float space => admitted in quantized space.

        Rounding moves each int8 component by at most 1 and saturation
        only shrinks differences, so the quantized distance stays
        within ``scale * float_distance + dim`` — exactly the slack
        ``quantized_radius`` grants the admission limit.
        """
        import numpy as np

        from repro.matching.batch import EncodedCosts
        from repro.matching.embed import (
            EmbeddingModel,
            quantize,
            quantized_radius,
        )

        model = EmbeddingModel(EncodedCosts(costs, SYMBOLS))
        x, y = model.encode(a), model.encode(b)
        if float(np.abs(x - y).sum()) > radius:
            return  # not admitted in float space; no promise made
        qx = quantize(x[None, :]).astype(np.int32)[0]
        qy = quantize(y[None, :]).astype(np.int32)[0]
        qdist = int(np.abs(qx - qy).sum())
        assert qdist <= quantized_radius(radius, model.dim)

    @settings(max_examples=40, deadline=None)
    @given(
        strings=st.lists(phoneme_strings, min_size=1, max_size=12),
        extra=phoneme_strings,
        query=phoneme_strings,
        radius=st.floats(min_value=0.0, max_value=12.0, allow_nan=False),
    )
    def test_insert_then_delete_restores_search(
        self, strings, extra, query, radius
    ):
        import numpy as np

        from repro.matching.batch import EncodedCosts
        from repro.matching.embed import EmbeddingModel, QuantizedMatrixIndex

        model = EmbeddingModel(EncodedCosts(ClusteredCost(0.25), SYMBOLS))
        vectors = np.stack([model.encode(s) for s in strings])
        qvec = model.encode(query)
        index = QuantizedMatrixIndex.from_vectors(vectors)
        before = sorted(index.search(qvec, radius).tolist())
        position = index.append(model.encode(extra))
        index.delete(position)
        after = sorted(index.search(qvec, radius).tolist())
        assert after == before, (before, after)


class TestConverterTotality:
    @settings(max_examples=80, deadline=None)
    @given(
        word=st.text(
            alphabet=st.characters(min_codepoint=97, max_codepoint=122),
            min_size=1,
            max_size=12,
        )
    )
    def test_english_total_and_deterministic(self, word):
        from repro.ttp.english import EnglishConverter

        converter = EnglishConverter()
        first = converter.to_phonemes(word)
        assert first == converter.to_phonemes(word)

    @settings(max_examples=80, deadline=None)
    @given(
        word=st.text(
            alphabet=st.characters(min_codepoint=97, max_codepoint=122),
            min_size=1,
            max_size=10,
        )
    )
    def test_romanization_reader_total(self, word):
        from repro.data.transliterate import (
            romanization_to_indic_phonemes,
            to_devanagari,
            to_tamil,
        )
        from repro.ttp.hindi import HindiConverter
        from repro.ttp.tamil import TamilConverter

        intent = romanization_to_indic_phonemes(word)
        # Everything the reader produces must be spellable and readable.
        HindiConverter().to_phonemes(to_devanagari(intent))
        TamilConverter().to_phonemes(to_tamil(intent))
