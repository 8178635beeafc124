"""Pairwise reference implementations the test suite checks against.

The library filters and verifies in batches (``QGramSource``,
``PhonemeStore.verify``); these are the one-pair-at-a-time forms of the
q-gram filters of paper Section 5.2 and the full DP matrix of Figure 8,
kept here as oracles.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Sequence

from repro.matching.costs import UNIT_COST, CostModel
from repro.matching.qgrams import (
    count_filter_threshold,
    matching_qgram_pairs,
    positional_qgrams,
)


def qgram_profile(tokens: Sequence[str], q: int = 2) -> Counter:
    """Bag of q-grams (positions dropped)."""
    return Counter(g.gram for g in positional_qgrams(tokens, q))


def length_filter(len_a: int, len_b: int, k: float) -> bool:
    """Strings within ``k`` unit edits differ in length by at most ``k``."""
    return abs(len_a - len_b) <= k


def count_filter(
    tokens_a: Sequence[str],
    tokens_b: Sequence[str],
    k: float,
    q: int = 2,
) -> bool:
    """Count filter alone (no position constraint)."""
    needed = count_filter_threshold(len(tokens_a), len(tokens_b), k, q)
    if needed <= 0:
        return True
    profile_b = qgram_profile(tokens_b, q)
    shared = sum(
        min(n, profile_b.get(gram, 0))
        for gram, n in qgram_profile(tokens_a, q).items()
    )
    return shared >= needed


def position_filter(
    tokens_a: Sequence[str],
    tokens_b: Sequence[str],
    k: float,
    q: int = 2,
) -> bool:
    """Count filter with the position constraint applied (Figure 14 form)."""
    needed = count_filter_threshold(len(tokens_a), len(tokens_b), k, q)
    if needed <= 0:
        return True
    pairs = matching_qgram_pairs(
        positional_qgrams(tokens_a, q), positional_qgrams(tokens_b, q), k
    )
    return pairs >= needed


def passes_filters(
    tokens_a: Sequence[str],
    tokens_b: Sequence[str],
    k: float,
    q: int = 2,
) -> bool:
    """All three filters combined.

    Guaranteed conservative with respect to unit-cost edit distance: if
    ``edit_distance(a, b) <= k`` then this returns True.
    """
    if not length_filter(len(tokens_a), len(tokens_b), k):
        return False
    return position_filter(tokens_a, tokens_b, k, q)


def distance_matrix(
    left: Sequence[str],
    right: Sequence[str],
    costs: CostModel = UNIT_COST,
) -> list[list[float]]:
    """The full DP matrix of Figure 8.

    ``matrix[i][j]`` is the cost of editing ``left[:i]`` into
    ``right[:j]``; ``matrix[len(left)][len(right)]`` equals
    :func:`repro.matching.editdist.edit_distance`.
    """
    len_l, len_r = len(left), len(right)
    matrix = [[0.0] * (len_r + 1) for _ in range(len_l + 1)]
    for i in range(1, len_l + 1):
        matrix[i][0] = matrix[i - 1][0] + costs.delete(left[i - 1])
    for j in range(1, len_r + 1):
        matrix[0][j] = matrix[0][j - 1] + costs.insert(right[j - 1])
    for i in range(1, len_l + 1):
        tok_l = left[i - 1]
        for j in range(1, len_r + 1):
            tok_r = right[j - 1]
            matrix[i][j] = min(
                matrix[i - 1][j] + costs.delete(tok_l),
                matrix[i - 1][j - 1] + costs.substitute(tok_l, tok_r),
                matrix[i][j - 1] + costs.insert(tok_r),
            )
    return matrix
