"""``LexEqualMatcher`` — the configured, cached matching façade.

Applications construct one matcher per configuration and reuse it: the
matcher caches text → phoneme transformations (via the TTP registry) and
exposes phoneme-level entry points the database strategies build on
(budgets, banded distances, grouped keys).

:meth:`LexEqualMatcher.match` is the one implementation of the paper's
Figure 8 operator: :func:`~repro.core.operator.lex_equal`, the SQL
``lexequal`` UDF and the server's ``lexequal`` op all call it (the op
through :meth:`~LexEqualMatcher.explain`), and every operand, here and
in the SQL accelerator, is resolved by :meth:`~LexEqualMatcher.resolve`.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

from repro.core.config import MatchConfig, check_threshold
from repro.core.operator import MatchOutcome, language_set, operand_language
from repro.errors import TTPError
from repro.matching.costs import CostModel
from repro.matching.editdist import edit_distance, edit_distance_within
from repro.minidb.values import LangText
from repro.phonetics.keys import grouped_key
from repro.phonetics.parse import PhonemeString, format_phonemes, parse_ipa
from repro.ttp.registry import TTPRegistry, default_registry


@dataclass(frozen=True)
class MatchExplanation:
    """Full accounting of one LexEQUAL comparison (for debugging/UX)."""

    left: str
    right: str
    left_language: str | None
    right_language: str | None
    outcome: MatchOutcome
    #: Empty, None and 0 when the outcome was decided before conversion
    #: (NORESOURCE, or an operand outside INLANGUAGES).
    left_ipa: str = ""
    right_ipa: str = ""
    distance: float | None = None
    budget: float = 0.0

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{self.left} [{self.left_ipa}] vs {self.right} "
            f"[{self.right_ipa}]: distance={self.distance} "
            f"budget={self.budget:.3f} -> {self.outcome.value}"
        )


class LexEqualMatcher:
    """LexEQUAL with a fixed configuration and shared caches."""

    def __init__(
        self,
        config: MatchConfig | None = None,
        registry: TTPRegistry | None = None,
    ):
        self.config = config or MatchConfig()
        self.registry = registry or default_registry()
        self._costs: CostModel = self.config.cost_model()

    @property
    def costs(self) -> CostModel:
        return self._costs

    # ------------------------------------------------------------ operands

    def language_of(self, value: str | LangText) -> str | None:
        """Operand language (tag or script detection); None if unknown."""
        return operand_language(value)

    def resolve(self, value: str | LangText) -> str | None:
        """Figure 8 steps 1-2 for one operand: its language when that
        language has a converter, None for ``NORESOURCE``."""
        language = operand_language(value)
        if language is None or not self.registry.supports(language):
            return None
        return language

    def phonemes(self, value: str | LangText) -> PhonemeString:
        """Phoneme string of a text operand.

        Raises :class:`~repro.errors.TTPError` when the language cannot
        be determined or has no converter.
        """
        language = self.resolve(value)
        if language is None:
            raise TTPError(f"no phoneme converter for {value!r}")
        return self.registry.transform(str(value), language)

    def ipa(self, value: str | LangText) -> str:
        """Flat IPA transcription of an operand."""
        return format_phonemes(self.phonemes(value))

    def grouped_key_of(self, value: str | LangText) -> int:
        """Grouped phoneme string identifier (phonetic index key)."""
        return grouped_key(
            self.phonemes(value),
            self.config.clustering,
            mode=self.config.key_mode,
        )

    # ------------------------------------------------------------ matching

    def threshold_of(self, threshold: float | None = None) -> float:
        """The ``THRESHOLD`` in force: the configured one when None.

        Raises :class:`~repro.errors.MatchConfigError` outside ``[0, 1]``.
        """
        if threshold is None:
            return self.config.threshold
        return check_threshold(float(threshold))

    def phoneme_distance(
        self, left: PhonemeString, right: PhonemeString
    ) -> float:
        """Exact clustered edit distance between phoneme strings."""
        return edit_distance(left, right, self._costs)

    def phonemes_match(
        self,
        left: PhonemeString,
        right: PhonemeString,
        threshold: float | None = None,
    ) -> bool:
        """Threshold test on phoneme strings, using the banded DP."""
        budget = self.config.budget(len(left), len(right), threshold)
        return (
            edit_distance_within(left, right, budget, self._costs)
            is not None
        )

    def ipa_match(
        self, left_ipa: str, right_ipa: str, threshold: float | None = None
    ) -> bool:
        """Threshold test on two stored IPA strings."""
        return self.phonemes_match(
            parse_ipa(left_ipa),
            parse_ipa(right_ipa),
            self.threshold_of(threshold),
        )

    def _operands(self, left, right, languages):
        """Figure 8 steps 1-3 plus ``INLANGUAGES``: both phoneme
        strings, or the outcome decided before conversion."""
        lang_l = self.resolve(left)
        lang_r = self.resolve(right)
        if lang_l is None or lang_r is None:
            return MatchOutcome.NORESOURCE
        wanted = language_set(languages)
        if wanted and (lang_l not in wanted or lang_r not in wanted):
            return MatchOutcome.FALSE
        return (
            self.registry.transform(str(left), lang_l),
            self.registry.transform(str(right), lang_r),
        )

    def match(
        self,
        left: str | LangText,
        right: str | LangText,
        threshold: float | None = None,
        languages: str | Iterable[str] = (),
    ) -> MatchOutcome:
        """The LexEQUAL operator of Figure 8 on text operands.

        ``threshold`` overrides the configured one and must lie in
        ``[0, 1]``.  ``languages`` is the ``INLANGUAGES`` set (see
        :func:`~repro.core.operator.language_set`): both operands must
        be in it, or the outcome is FALSE.  A failing conversion raises
        its :class:`~repro.errors.TTPError`.
        """
        e = self.threshold_of(threshold)
        operands = self._operands(left, right, languages)
        if isinstance(operands, MatchOutcome):
            return operands
        if self.phonemes_match(*operands, e):
            return MatchOutcome.TRUE
        return MatchOutcome.FALSE

    def matches(self, left: str | LangText, right: str | LangText) -> bool:
        """Boolean LexEQUAL (NORESOURCE counts as no match)."""
        return self.match(left, right) is MatchOutcome.TRUE

    def explain(
        self,
        left: str | LangText,
        right: str | LangText,
        threshold: float | None = None,
        languages: str | Iterable[str] = (),
    ) -> MatchExplanation:
        """:meth:`match` with its full accounting, including the exact
        edit distance of a converted pair."""
        e = self.threshold_of(threshold)
        operands = self._operands(left, right, languages)
        report = {
            "left": str(left),
            "right": str(right),
            "left_language": self.language_of(left),
            "right_language": self.language_of(right),
        }
        if isinstance(operands, MatchOutcome):
            return MatchExplanation(**report, outcome=operands)
        phonemes_l, phonemes_r = operands
        matched = self.phonemes_match(phonemes_l, phonemes_r, e)
        return MatchExplanation(
            **report,
            outcome=MatchOutcome.TRUE if matched else MatchOutcome.FALSE,
            left_ipa=format_phonemes(phonemes_l),
            right_ipa=format_phonemes(phonemes_r),
            distance=self.phoneme_distance(phonemes_l, phonemes_r),
            budget=self.config.budget(len(phonemes_l), len(phonemes_r), e),
        )

    # ------------------------------------------------------------- search

    def search(
        self,
        query: str | LangText,
        candidates,
        languages: Iterable[str] = (),
    ) -> list:
        """All candidates that LexEQUAL-match the query.

        ``candidates`` is any iterable of ``str | LangText``; the result
        preserves input order.  ``languages`` keeps only candidates in
        those languages, whatever the query's (DESIGN.md §9 *Two
        language filters*).
        """
        wanted = language_set(languages)
        query_phonemes = self.phonemes(query)
        results = []
        for candidate in candidates:
            language = self.resolve(candidate)
            if language is None or (wanted and language not in wanted):
                continue
            cand_phonemes = self.registry.transform(str(candidate), language)
            if self.phonemes_match(query_phonemes, cand_phonemes):
                results.append(candidate)
        return results
