"""The substitution costs of every shipped model form a metric.

These are the classical sufficient conditions for a sequence edit
distance to be a metric, minus the delete-through-substitute detour that
fractional weak-indel models break (see ``repro.matching.metric``):

1. symbol substitution costs form a (pseudo)metric: symmetric, zero on
   the diagonal, triangle inequality;
2. insertion and deletion cost the same for each symbol;
3. substituting never costs more than deleting plus inserting.

These are checked exhaustively over the whole phoneme inventory (numpy
broadcasting keeps the O(n^3) triangle check fast) for every cost
configuration the library ships.
"""

import numpy as np
import pytest

from repro.matching.batch import EncodedCosts
from repro.matching.costs import ClusteredCost, LevenshteinCost
from repro.phonetics.inventory import INVENTORY

ALL_SYMBOLS = tuple(sorted(INVENTORY))

CONFIGS = [
    LevenshteinCost(),
    ClusteredCost(0.25),
    ClusteredCost(0.5),
    ClusteredCost(1.0),
    ClusteredCost(0.25, weak_indel_cost=1.0, vowel_cross_cost=1.0),
    ClusteredCost(0.5, weak_indel_cost=0.5, vowel_cross_cost=0.75),
]


@pytest.mark.parametrize("costs", CONFIGS, ids=lambda c: repr(c)[:40])
class TestMetricAxioms:
    def test_substitution_symmetric_and_zero_diagonal(self, costs):
        encoded = EncodedCosts(costs, ALL_SYMBOLS)
        sub = encoded.sub
        assert np.allclose(sub, sub.T)
        assert np.allclose(np.diag(sub), 0.0)
        # Distinct symbols are at strictly positive distance except when
        # the model deliberately makes them free (intra cost 0).
        if costs.min_op_cost() > 0 and getattr(
            costs, "intra_cluster_cost", 1.0
        ) > 0:
            off_diag = sub + np.eye(len(sub))
            assert (off_diag > 0).all()

    def test_substitution_triangle_inequality(self, costs):
        encoded = EncodedCosts(costs, ALL_SYMBOLS)
        sub = encoded.sub
        # min over k of sub[a,k] + sub[k,b] must never beat sub[a,b].
        best_via = np.full_like(sub, np.inf)
        for k in range(sub.shape[0]):
            np.minimum(
                best_via, sub[:, k : k + 1] + sub[k : k + 1, :], out=best_via
            )
        assert (sub <= best_via + 1e-12).all()

    def test_insert_equals_delete(self, costs):
        encoded = EncodedCosts(costs, ALL_SYMBOLS)
        assert np.allclose(encoded.ins, encoded.dele)

    def test_substitute_never_beats_indel_pair(self, costs):
        encoded = EncodedCosts(costs, ALL_SYMBOLS)
        bound = encoded.dele[:, None] + encoded.ins[None, :]
        assert (encoded.sub <= bound + 1e-12).all()
