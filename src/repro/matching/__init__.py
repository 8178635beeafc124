"""Approximate string matching substrate.

Implements the matching machinery of the paper:

* :mod:`repro.matching.costs` — cost models for the dynamic-programming
  edit distance, including the *Clustered Edit Distance* with its tunable
  intra-cluster substitution cost (paper Section 3.3);
* :mod:`repro.matching.editdist` — the ``editdistance`` routine of paper
  Figure 8 (full dynamic programming) plus a banded variant with early
  termination for threshold queries;
* :mod:`repro.matching.qgrams` — positional q-grams and the length /
  count / position filters of Gravano et al. (paper Section 5.2).
"""

from repro.matching.costs import (
    CostModel,
    LevenshteinCost,
    ClusteredCost,
    UNIT_COST,
)
from repro.matching.editdist import (
    edit_distance,
    edit_distance_within,
)
from repro.matching.metric import (
    MetricViolation,
    check_metric_axioms,
)
from repro.matching.qgrams import (
    PositionalQGram,
    positional_qgrams,
    count_filter_threshold,
)

__all__ = [
    "CostModel",
    "LevenshteinCost",
    "ClusteredCost",
    "UNIT_COST",
    "edit_distance",
    "edit_distance_within",
    "MetricViolation",
    "check_metric_axioms",
    "PositionalQGram",
    "positional_qgrams",
    "count_filter_threshold",
]
