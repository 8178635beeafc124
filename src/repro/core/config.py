"""Matching configuration: the tunable parameters of Section 3.3.

Two parameters drive match quality (paper Figures 11/12):

* ``threshold`` — the *user match threshold* ``e`` in ``[0, 1]``: the
  allowed edit distance as a fraction of the shorter phoneme string
  (0 = perfect matches only);
* ``intra_cluster_cost`` — the *intra-cluster substitution cost* in
  ``[0, 1]``: 1 reproduces plain Levenshtein, 0 reproduces Soundex-style
  free substitution within a phoneme cluster.

The paper's recommended operating point (the knee of Figure 12) is a
threshold of 0.25–0.35 with an intra-cluster cost of 0.25–0.5; the
defaults sit in that region.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.errors import MatchConfigError
from repro.matching.costs import ClusteredCost, CostModel, LevenshteinCost
from repro.phonetics.clusters import PhonemeClustering, default_clustering


#: Cost models by (intra-cluster, weak-indel, vowel-cross cost,
#: clustering identity).  Each entry holds its clustering, so that id
#: cannot be reused by another clustering while the entry lives.
_COST_MODELS: dict[tuple, tuple[PhonemeClustering, CostModel]] = {}
_COST_MODEL_CACHE_SIZE = 64


def check_threshold(threshold: float) -> float:
    """``threshold`` itself if it is a legal user match threshold."""
    if not 0.0 <= threshold <= 1.0:
        raise MatchConfigError(f"threshold {threshold} not in [0, 1]")
    return threshold


@dataclass(frozen=True)
class MatchConfig:
    """Immutable LexEQUAL parameter bundle."""

    threshold: float = 0.25
    intra_cluster_cost: float = 0.25
    clustering: PhonemeClustering = field(default_factory=default_clustering)
    #: Insert/delete cost for weak segments (laryngeals, vowels); 1.0
    #: restores the flat classical cost.  See ClusteredCost.
    weak_indel_cost: float = 0.5
    #: Substitution cost between vowels of different clusters; 1.0
    #: restores the flat classical cost.  See ClusteredCost.
    vowel_cross_cost: float = 0.5
    #: q-gram length for the q-gram filter strategy.
    q: int = 2
    #: Filter domain: "cluster" applies the q-gram filters to
    #: cluster-mapped strings (sound for any intra-cluster cost),
    #: "phoneme" applies them to raw phoneme strings (classical form).
    qgram_domain: str = "cluster"
    #: Grouped-key construction for the phonetic index: "skeleton"
    #: (Soundex-style consonant skeleton, low false-dismissal rate) or
    #: "full" (every phoneme, strictest).  See phonetics.keys.grouped_key.
    key_mode: str = "skeleton"

    def __post_init__(self) -> None:
        check_threshold(self.threshold)
        if not 0.0 <= self.intra_cluster_cost <= 1.0:
            raise MatchConfigError(
                f"intra-cluster cost {self.intra_cluster_cost} not in [0, 1]"
            )
        if not 0.0 < self.weak_indel_cost <= 1.0:
            raise MatchConfigError(
                f"weak indel cost {self.weak_indel_cost} not in (0, 1]"
            )
        if not 0.0 < self.vowel_cross_cost <= 1.0:
            raise MatchConfigError(
                f"vowel cross cost {self.vowel_cross_cost} not in (0, 1]"
            )
        if self.q < 1:
            raise MatchConfigError(f"q must be >= 1, got {self.q}")
        if self.qgram_domain not in ("cluster", "phoneme"):
            raise MatchConfigError(
                f"qgram_domain must be 'cluster' or 'phoneme', "
                f"got {self.qgram_domain!r}"
            )
        if self.key_mode not in ("skeleton", "full"):
            raise MatchConfigError(
                f"key_mode must be 'skeleton' or 'full', "
                f"got {self.key_mode!r}"
            )

    def cost_model(self) -> CostModel:
        """The edit-distance cost model induced by this configuration.

        Memoized on the cost-relevant fields, so the per-query copies
        :meth:`with_threshold` makes share one model.
        """
        key = (
            self.intra_cluster_cost,
            self.weak_indel_cost,
            self.vowel_cross_cost,
            id(self.clustering),
        )
        cached = _COST_MODELS.get(key)
        if cached is not None:
            return cached[1]
        if (
            self.intra_cluster_cost >= 1.0
            and self.weak_indel_cost >= 1.0
            and self.vowel_cross_cost >= 1.0
        ):
            model: CostModel = LevenshteinCost()
        else:
            model = ClusteredCost(
                self.intra_cluster_cost,
                self.clustering,
                weak_indel_cost=self.weak_indel_cost,
                vowel_cross_cost=self.vowel_cross_cost,
            )
        if len(_COST_MODELS) >= _COST_MODEL_CACHE_SIZE:
            _COST_MODELS.clear()
        _COST_MODELS[key] = (self.clustering, model)
        return model

    def with_threshold(self, threshold: float) -> MatchConfig:
        """Copy with a different user match threshold."""
        return replace(self, threshold=threshold)

    def with_intra_cluster_cost(self, cost: float) -> MatchConfig:
        """Copy with a different intra-cluster substitution cost."""
        return replace(self, intra_cluster_cost=cost)

    def budget(
        self, len_left: int, len_right: int, threshold: float | None = None
    ) -> float:
        """Edit-cost budget for a pair: ``e * min(|T_l|, |T_r|)``, with
        ``e`` this config's threshold unless ``threshold`` is given."""
        e = self.threshold if threshold is None else threshold
        return e * min(len_left, len_right)

    def max_operations(self, query_len: int) -> int:
        """Upper bound on edit *operations* for any match with a query.

        Used by the filter strategies to derive the classical ``k``.  The
        budget against any candidate is at most ``threshold * query_len``
        (the minimum of the two lengths never exceeds the query length),
        and each operation costs at least ``min_op_cost`` — except
        intra-cluster substitutions under the cluster q-gram domain,
        where they are identity and do not count.
        """
        budget = self.threshold * query_len
        if self.qgram_domain == "cluster":
            # Intra-cluster substitutions vanish in cluster space; every
            # operation that remains costs at least min_mapped_op_cost.
            return int(budget / self.cost_model().min_mapped_op_cost())
        if self.intra_cluster_cost == 0.0:
            raise MatchConfigError(
                "phoneme-domain q-gram filters are unsound with a zero "
                "intra-cluster cost (free substitutions allow unbounded "
                "operations); use qgram_domain='cluster'"
            )
        return int(budget / self.cost_model().min_op_cost())
