"""All-pairs match quality over the tagged lexicon (Figures 11/12).

The harness mirrors the paper's methodology: every phonemic string is
matched against every other (pairs, not ordered comparisons), a match is
*correct* when the tag numbers agree, and recall/precision follow the
Section 4.2 formulas.

Distances do not depend on the user match threshold, so a sweep computes
one pairwise distance matrix per intra-cluster cost and then evaluates
every threshold against it — this is what makes the full Figure 11 grid
(5 costs × 17 thresholds over ~2400 strings) run in seconds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.config import MatchConfig
from repro.data.lexicon import MultiscriptLexicon
from repro.evaluation.metrics import QualityCounts, ideal_match_count
from repro.matching.batch import pairwise_distance_matrix
from repro.phonetics.keys import grouped_key
from repro.phonetics.parse import parse_ipa


@dataclass(frozen=True)
class QualityPoint:
    """Recall/precision at one (threshold, intra-cluster cost) setting."""

    threshold: float
    intra_cluster_cost: float
    recall: float
    precision: float
    counts: QualityCounts


class _PreparedLexicon:
    """Lexicon parsed and indexed for repeated evaluations."""

    def __init__(self, lexicon: MultiscriptLexicon):
        self.phonemes = [parse_ipa(e.ipa) for e in lexicon.entries]
        self.tags = np.array([e.tag for e in lexicon.entries])
        self.lengths = np.array([len(p) for p in self.phonemes])
        groups: dict[int, int] = {}
        for entry in lexicon.entries:
            groups[entry.tag] = groups.get(entry.tag, 0) + 1
        self.ideal = ideal_match_count(list(groups.values()))
        n = len(self.phonemes)
        self.upper = np.triu_indices(n, 1)
        minlen = np.minimum.outer(self.lengths, self.lengths)
        self.pair_minlen = minlen[self.upper]
        self.pair_same_tag = (
            self.tags[:, None] == self.tags[None, :]
        )[self.upper]


def _distances(
    prepared: _PreparedLexicon, config: MatchConfig
) -> np.ndarray:
    matrix = pairwise_distance_matrix(
        prepared.phonemes, config.cost_model()
    )
    return matrix[prepared.upper]


def _point(
    prepared: _PreparedLexicon,
    pair_distances: np.ndarray,
    threshold: float,
    intra_cluster_cost: float,
) -> QualityPoint:
    budgets = threshold * prepared.pair_minlen
    matched = pair_distances <= budgets + 1e-12
    reported = int(matched.sum())
    correct = int((matched & prepared.pair_same_tag).sum())
    counts = QualityCounts(
        correct_matches=correct,
        reported_matches=reported,
        ideal_matches=prepared.ideal,
    )
    return QualityPoint(
        threshold=threshold,
        intra_cluster_cost=intra_cluster_cost,
        recall=counts.recall,
        precision=counts.precision,
        counts=counts,
    )


def evaluate_quality(
    lexicon: MultiscriptLexicon, config: MatchConfig
) -> QualityPoint:
    """Recall/precision of all-pairs matching at one configuration."""
    prepared = _PreparedLexicon(lexicon)
    distances = _distances(prepared, config)
    return _point(
        prepared, distances, config.threshold, config.intra_cluster_cost
    )


def sweep_quality(
    lexicon: MultiscriptLexicon,
    thresholds: list[float],
    intra_cluster_costs: list[float],
    base_config: MatchConfig | None = None,
) -> list[QualityPoint]:
    """The Figure 11/12 parameter sweep.

    Returns one :class:`QualityPoint` per (cost, threshold) combination,
    ordered cost-major.  ``base_config`` carries the non-swept knobs
    (clustering, weak-indel cost).
    """
    base = base_config or MatchConfig()
    prepared = _PreparedLexicon(lexicon)
    points: list[QualityPoint] = []
    for cost in intra_cluster_costs:
        config = base.with_intra_cluster_cost(cost)
        distances = _distances(prepared, config)
        for threshold in thresholds:
            points.append(_point(prepared, distances, threshold, cost))
    return points


@dataclass(frozen=True)
class StrategyQuality:
    """One strategy's match quality relative to the exact matcher.

    ``recall_vs_exact`` is the fraction of the exact strategies' match
    pairs the strategy reports (1.0 for every lossless strategy by
    construction); ``candidate_fraction`` is the share of all pairs its
    prefilter admits to verification (1.0 when there is no prefilter
    narrower than the exact candidate set); ``recall``/``precision``
    are the Figure 11/12 tag-based scores of its *final* result set.
    """

    strategy: str
    threshold: float
    recall_vs_exact: float
    candidate_fraction: float
    recall: float
    precision: float


def strategy_quality(
    lexicon: MultiscriptLexicon,
    config: MatchConfig | None = None,
    *,
    strategies: tuple[str, ...] = ("naive", "qgram", "index"),
) -> list[StrategyQuality]:
    """Per-strategy Figure 11/12 quality, prefilters included.

    The exact strategies (``naive``/``qgram``/``parallel``)
    share one result set — every pair within the edit-distance budget —
    so their ``recall_vs_exact`` is 1.0 by construction and this
    function scores them once each only so a golden test can pin that
    fact.  The lossy ``index`` strategy is scored through its actual
    admission rule, grouped-key equality; its final result set is the
    intersection with the exact matches, exactly what the exact
    verifier yields.
    """
    config = config or MatchConfig()
    prepared = _PreparedLexicon(lexicon)
    distances = _distances(prepared, config)
    budgets = config.threshold * prepared.pair_minlen
    matched = distances <= budgets + 1e-12
    exact_count = int(matched.sum())
    all_pairs = len(matched)

    def admitted_for(strategy: str) -> np.ndarray:
        if strategy == "index":
            keys = np.array(
                [
                    grouped_key(p, config.clustering, mode=config.key_mode)
                    for p in prepared.phonemes
                ],
                dtype=object,
            )
            i_idx, j_idx = prepared.upper
            return keys[i_idx] == keys[j_idx]
        return np.ones(all_pairs, dtype=bool)

    results = []
    for strategy in strategies:
        admitted = admitted_for(strategy)
        reported_mask = matched & admitted
        reported = int(reported_mask.sum())
        correct = int((reported_mask & prepared.pair_same_tag).sum())
        counts = QualityCounts(
            correct_matches=correct,
            reported_matches=reported,
            ideal_matches=prepared.ideal,
        )
        results.append(
            StrategyQuality(
                strategy=strategy,
                threshold=config.threshold,
                recall_vs_exact=(
                    reported / exact_count if exact_count else 1.0
                ),
                candidate_fraction=(
                    float(admitted.sum()) / all_pairs if all_pairs else 0.0
                ),
                recall=counts.recall,
                precision=counts.precision,
            )
        )
    return results


def phonetic_index_dismissals(
    lexicon: MultiscriptLexicon, config: MatchConfig | None = None
) -> tuple[int, int, float]:
    """False dismissals introduced by the phonetic index (Section 5.3).

    Compares the matches reported by the full-scan UDF against those
    reachable through equality on the grouped phoneme string identifier.
    Returns ``(dismissed, reported_by_scan, dismissal_rate)``; the paper
    measures "a small, but significant 4 - 5%" rate.
    """
    config = config or MatchConfig()
    prepared = _PreparedLexicon(lexicon)
    distances = _distances(prepared, config)
    budgets = config.threshold * prepared.pair_minlen
    matched = distances <= budgets + 1e-12
    keys = np.array(
        [
            grouped_key(p, config.clustering, mode=config.key_mode)
            for p in prepared.phonemes
        ],
        dtype=object,
    )
    i_idx, j_idx = prepared.upper
    same_key = keys[i_idx] == keys[j_idx]
    reported = int(matched.sum())
    dismissed = int((matched & ~same_key).sum())
    rate = dismissed / reported if reported else 0.0
    return dismissed, reported, rate
