"""Cost models for the LexEQUAL edit distance.

Paper Figure 8 parameterizes the dynamic program with three cost functions
— ``InsCost``, ``DelCost`` and ``SubCost`` — and Section 3.3 defines the
*Clustered Edit Distance*: substitutions between phonemes of the same
cluster cost the tunable *intra-cluster substitution cost* in ``[0, 1]``,
while everything else costs 1.  Setting the intra-cluster cost to 1
"simulat[es] the standard Levenshtein cost function" and 0 reproduces the
Soundex behaviour (free substitutions within a cluster).

Cost models are small immutable strategy objects so that the dynamic
program stays generic; they also expose :meth:`CostModel.min_op_cost`,
which the q-gram filter layer uses to translate a *cost* budget into a
bound on the *number* of edit operations (see ``repro.core.strategies``).
"""

from __future__ import annotations

import abc
import functools

from repro.errors import MatchConfigError
from repro.phonetics.clusters import PhonemeClustering, default_clustering


class CostModel(abc.ABC):
    """Edit-operation costs over phoneme symbols (or any hashable tokens)."""

    @abc.abstractmethod
    def insert(self, symbol: str) -> float:
        """Cost of inserting ``symbol``."""

    @abc.abstractmethod
    def delete(self, symbol: str) -> float:
        """Cost of deleting ``symbol``."""

    @abc.abstractmethod
    def substitute(self, a: str, b: str) -> float:
        """Cost of substituting ``a`` with ``b`` (0 when equal)."""

    @abc.abstractmethod
    def min_op_cost(self) -> float:
        """Smallest non-zero cost any single edit operation can have.

        Used to bound the number of operations an edit script with a given
        cost budget may contain.  Must be > 0; models whose substitutions
        can be free must still return the smallest *non-zero* cost (free
        operations are handled separately by mapping to cluster space).
        """

    @abc.abstractmethod
    def min_indel_cost(self) -> float:
        """Smallest possible insertion/deletion cost (> 0).

        The banded edit distance and the length filter use this to bound
        how far an edit script can drift off the diagonal within a given
        cost budget.
        """

    def min_mapped_op_cost(self) -> float:
        """Cheapest operation visible after cluster mapping (> 0).

        Default: same as :meth:`min_op_cost`.  Cluster-aware models
        override this, since their intra-cluster substitutions map to
        identities.
        """
        return self.min_op_cost()


class LevenshteinCost(CostModel):
    """The classical unit-cost model: every operation costs 1."""

    def insert(self, symbol: str) -> float:
        return 1.0

    def delete(self, symbol: str) -> float:
        return 1.0

    def substitute(self, a: str, b: str) -> float:
        return 0.0 if a == b else 1.0

    def min_op_cost(self) -> float:
        return 1.0

    def min_indel_cost(self) -> float:
        return 1.0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "LevenshteinCost()"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, LevenshteinCost)

    def __hash__(self) -> int:
        return hash(LevenshteinCost)


#: Shared unit-cost instance.
UNIT_COST = LevenshteinCost()


#: Segments whose insertion/deletion is discounted by default: laryngeals
#: and schwa — the segments most commonly elided or epenthesized when a
#: name crosses scripts (Hindi नेहरु keeps the ɦ that Tamil நேரு drops;
#: Indic renderings of English names routinely epenthesize or delete
#: unstressed vowels, and English diphthongs shed their offglides, whose
#: lax members fold onto i/u before matching).
WEAK_PHONEMES = frozenset({"h", "ɦ", "ʔ", "ə", "i", "u"})


class ClusteredCost(CostModel):
    """The paper's Clustered Edit Distance cost model.

    ``intra_cluster_cost`` is the substitution cost between two *distinct*
    phonemes of the same cluster; substitutions across clusters cost 1.
    Legal range is ``[0, 1]``.

    Insertions and deletions cost 1, except for *weak* segments
    (laryngeals and vowels by default) which cost ``weak_indel_cost`` —
    the paper's Figure 8 signature (``InsCost(S_Li)``, ``DelCost``)
    explicitly allows phoneme-dependent insert/delete costs, and this is
    the linguistically load-bearing instance for cross-script names.
    Likewise a substitution between two vowels of *different* clusters
    costs ``vowel_cross_cost`` rather than the full cross-cluster 1 —
    vowel quality is the least stable feature of a name across scripts.
    Set ``weak_indel_cost=1.0`` and ``vowel_cross_cost=1.0`` for the flat
    classical behaviour.
    """

    def __init__(
        self,
        intra_cluster_cost: float = 0.5,
        clustering: PhonemeClustering | None = None,
        *,
        weak_indel_cost: float = 0.5,
        vowel_cross_cost: float = 0.5,
        weak_phonemes: frozenset[str] = WEAK_PHONEMES,
    ):
        if not 0.0 <= intra_cluster_cost <= 1.0:
            raise MatchConfigError(
                f"intra-cluster substitution cost {intra_cluster_cost} "
                "not in [0, 1]"
            )
        if not 0.0 < weak_indel_cost <= 1.0:
            raise MatchConfigError(
                f"weak insert/delete cost {weak_indel_cost} not in (0, 1]"
            )
        if not 0.0 < vowel_cross_cost <= 1.0:
            raise MatchConfigError(
                f"vowel cross-cluster cost {vowel_cross_cost} not in (0, 1]"
            )
        self.intra_cluster_cost = float(intra_cluster_cost)
        self.clustering = clustering or default_clustering()
        self.weak_indel_cost = float(weak_indel_cost)
        self.vowel_cross_cost = float(vowel_cross_cost)
        self.weak_phonemes = weak_phonemes
        from repro.phonetics.inventory import INVENTORY

        self._vowels = frozenset(
            sym for sym, ph in INVENTORY.items() if ph.is_vowel
        )

    def insert(self, symbol: str) -> float:
        if symbol in self.weak_phonemes:
            return self.weak_indel_cost
        return 1.0

    def delete(self, symbol: str) -> float:
        if symbol in self.weak_phonemes:
            return self.weak_indel_cost
        return 1.0

    def substitute(self, a: str, b: str) -> float:
        if a == b:
            return 0.0
        if self.clustering.same_cluster(a, b):
            return self.intra_cluster_cost
        if a in self._vowels and b in self._vowels:
            return self.vowel_cross_cost
        return 1.0

    def min_op_cost(self) -> float:
        floor = min(
            1.0, self.weak_indel_cost, self.vowel_cross_cost
        )
        if self.intra_cluster_cost > 0.0:
            return min(floor, self.intra_cluster_cost)
        # Intra-cluster substitutions are free; the cheapest *non-zero*
        # operation is then an insert/delete/cross-cluster substitution.
        return floor

    def min_indel_cost(self) -> float:
        return self.weak_indel_cost

    def min_mapped_op_cost(self) -> float:
        """Cheapest operation still visible after cluster mapping.

        Intra-cluster substitutions become identities in cluster space;
        everything else costs at least this much.  Used by the cluster-
        domain q-gram filters to bound operation counts.
        """
        return min(1.0, self.weak_indel_cost, self.vowel_cross_cost)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ClusteredCost(intra_cluster_cost={self.intra_cluster_cost}, "
            f"clustering={self.clustering.name!r}, "
            f"weak_indel_cost={self.weak_indel_cost}, "
            f"vowel_cross_cost={self.vowel_cross_cost})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ClusteredCost):
            return NotImplemented
        return (
            self.intra_cluster_cost == other.intra_cluster_cost
            and self.clustering == other.clustering
            and self.weak_indel_cost == other.weak_indel_cost
            and self.vowel_cross_cost == other.vowel_cross_cost
            and self.weak_phonemes == other.weak_phonemes
        )

    def __hash__(self) -> int:
        return hash(
            (
                self.intra_cluster_cost,
                self.clustering,
                self.weak_indel_cost,
                self.vowel_cross_cost,
                self.weak_phonemes,
            )
        )


@functools.lru_cache(maxsize=16)
def count_classes(costs: CostModel, symbols: tuple) -> tuple[int, ...]:
    """The class-count bound's partition of ``symbols`` (DESIGN.md §9).

    ``count_classes(costs, symbols)[i]`` is the class of ``symbols[i]``:
    the connected components of "``substitute(a, b) < min_indel_cost()``
    either way", so symbols one cheap substitution apart share a class
    and classical unit costs give singletons.  Classes are numbered in
    order of their first symbol.  Pure Python and cached per cost model:
    a phoneme store counts classes at insert without importing numpy,
    and the batch kernel's tables use the same partition.
    """
    min_indel = costs.min_indel_cost()
    parent = list(range(len(symbols)))

    def root(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i, a in enumerate(symbols):
        for j in range(i + 1, len(symbols)):
            b = symbols[j]
            if (
                costs.substitute(a, b) < min_indel
                or costs.substitute(b, a) < min_indel
            ):
                ri, rj = root(i), root(j)
                if ri != rj:
                    parent[max(ri, rj)] = min(ri, rj)
    number: dict[int, int] = {}
    return tuple(
        number.setdefault(root(i), len(number)) for i in range(len(symbols))
    )
