"""Answer checks: every returned row or pair against the scalar Fig. 8 DP.

The reference is :func:`repro.matching.editdist.edit_distance_within` at
the paper's budget, ``threshold * min(|left|, |right|)`` phonemes — the
function the ROADMAP keeps as the test oracle.  It is bound here at
import, before a traced run wraps the program's copy, so checks never
show up in the spans.

Precision (each answer is a true match) is checked for every operation.
Recall (no true match is missing) is checked on seeded samples, outside
the timed window: a full scan that skips rows whose phoneme-length
difference alone exceeds the budget.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Iterable, Sequence

from repro.matching.editdist import edit_distance_within
from repro.phonetics.parse import parse_ipa

from inputs import Query


class SelectOracle:
    """LexEQUAL selection over a known table, as the SQL UDF defines it.

    ``table`` maps row id to ``(text, language)``; rows may be added as
    the program inserts them.
    """

    def __init__(self, matcher, threshold: float):
        self.matcher = matcher
        self.threshold = threshold
        self._min_indel = matcher.costs.min_indel_cost()
        self.table: dict[int, tuple[str, str]] = {}
        self._phonemes: dict[int, tuple[str, ...]] = {}
        self._by_length: dict[int, list[int]] = defaultdict(list)

    def add(self, row_id: int, text: str, language: str) -> None:
        phonemes = self.matcher.registry.transform(text, language)
        self.table[row_id] = (text, language)
        self._phonemes[row_id] = phonemes
        self._by_length[len(phonemes)].append(row_id)

    def _query(self, query: Query):
        language = self.matcher.language_of(query.name)
        return language, self.matcher.registry.transform(query.name, language)

    def _row_matches(self, row_id, q_language, q_phonemes, query) -> bool:
        _text, language = self.table[row_id]
        if query.languages and (
            language not in query.languages
            or q_language not in query.languages
        ):
            return False
        phonemes = self._phonemes[row_id]
        budget = self.threshold * min(len(phonemes), len(q_phonemes))
        return (
            edit_distance_within(
                phonemes, q_phonemes, budget, self.matcher.costs
            )
            is not None
        )

    def wrong_rows(self, query: Query, returned: Sequence[int]) -> list:
        """Returned ids that are unknown, repeated or not a match."""
        q_language, q_phonemes = self._query(query)
        seen = set()
        wrong = []
        for row_id in returned:
            if (
                row_id in seen
                or row_id not in self.table
                or not self._row_matches(row_id, q_language, q_phonemes, query)
            ):
                wrong.append(row_id)
            seen.add(row_id)
        return wrong

    def expected(self, query: Query) -> set[int]:
        """Every matching row id: the recall reference."""
        q_language, q_phonemes = self._query(query)
        qlen = len(q_phonemes)
        found = set()
        for length, row_ids in self._by_length.items():
            budget = self.threshold * min(length, qlen)
            if abs(length - qlen) * self._min_indel > budget:
                continue
            for row_id in row_ids:
                if self._row_matches(row_id, q_language, q_phonemes, query):
                    found.add(row_id)
        return found


class JoinOracle:
    """The cross-language self-join over records with known IPA."""

    def __init__(self, matcher, threshold: float, records: Iterable):
        self.costs = matcher.costs
        self.threshold = threshold
        #: id -> (language, phonemes), parsed as NameCatalog parses ipa=.
        self.records = {
            rec_id: (language, parse_ipa(ipa))
            for rec_id, language, ipa in records
        }

    def matches(self, a: int, b: int) -> bool:
        lang_a, ph_a = self.records[a]
        lang_b, ph_b = self.records[b]
        if lang_a == lang_b:
            return False
        budget = self.threshold * min(len(ph_a), len(ph_b))
        return edit_distance_within(ph_a, ph_b, budget, self.costs) is not None

    def wrong_pairs(self, pairs: Iterable[tuple[int, int]]) -> list:
        """Pairs that are unordered, unknown or not a cross-language match."""
        return [
            (a, b)
            for a, b in pairs
            if not (
                a < b
                and a in self.records
                and b in self.records
                and self.matches(a, b)
            )
        ]
