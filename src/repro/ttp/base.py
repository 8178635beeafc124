"""The TTP converter interface.

A converter maps text in one language/script to a phoneme string (a tuple
of IPA inventory symbols).  Converters must be deterministic and total
over their script: any word made of the script's letters gets *some*
pronunciation, because the paper's pipeline depends on every stored name
having a phonemic form.  Unknown characters raise
:class:`~repro.errors.TTPError` rather than being skipped silently.
"""

from __future__ import annotations

import abc

from repro.phonetics.parse import (
    PhonemeString,
    format_phonemes,
    parse_ipa,
    validate_phoneme_string,
)


class TTPConverter(abc.ABC):
    """Base class for text-to-phoneme converters.

    Subclasses set :attr:`language` (lowercase identifier used in queries'
    ``INLANGUAGES`` clauses) and :attr:`script` (informational) and
    implement :meth:`_word_to_phonemes` for a single normalized word.
    """

    #: Lowercase language identifier, e.g. ``"english"``.
    language: str = ""
    #: Script name, e.g. ``"latin"``, ``"devanagari"``.
    script: str = ""

    def to_phonemes(self, text: str, fold: bool = False) -> PhonemeString:
        """Convert ``text`` (possibly several words) to a phoneme string.

        Words are transcribed independently and concatenated, matching the
        attribute-level processing of the database context.  With
        ``fold``, the string is folded onto the canonical matching
        alphabet (:func:`~repro.phonetics.folding.fold_known`).  Either
        way each symbol is checked once, and a symbol outside the
        inventory raises :class:`~repro.errors.PhonemeError`.
        """
        words = self._split(text)
        phonemes: list[str] = []
        for word in words:
            phonemes.extend(self._word_to_phonemes(word))
        result = tuple(phonemes)
        if fold:
            from repro.phonetics.folding import fold_known

            return fold_known(result)
        validate_phoneme_string(result)
        return result

    def to_ipa(self, text: str) -> str:
        """Convert ``text`` to a flat IPA string."""
        return format_phonemes(self.to_phonemes(text))

    def _split(self, text: str) -> list[str]:
        from repro.ttp.normalize import split_words

        return split_words(text)

    @abc.abstractmethod
    def _word_to_phonemes(self, word: str) -> PhonemeString:
        """Transcribe one whitespace-free word."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(language={self.language!r})"


def parse_table(table: dict[str, str]) -> dict[str, PhonemeString]:
    """A script table with every IPA value parsed into phonemes.

    Converters parse their tables once, at import, so a conversion only
    looks phonemes up.
    """
    return {key: parse_ipa(ipa) for key, ipa in table.items()}


def builtin_converters() -> list[TTPConverter]:
    """Fresh instances of every converter shipped with the library."""
    from repro.ttp.arabic import ArabicConverter
    from repro.ttp.english import EnglishConverter
    from repro.ttp.french import FrenchConverter
    from repro.ttp.greek import GreekConverter
    from repro.ttp.hindi import HindiConverter
    from repro.ttp.kannada import KannadaConverter
    from repro.ttp.spanish import SpanishConverter
    from repro.ttp.tamil import TamilConverter

    return [
        EnglishConverter(),
        HindiConverter(),
        TamilConverter(),
        KannadaConverter(),
        GreekConverter(),
        SpanishConverter(),
        FrenchConverter(),
        ArabicConverter(),
    ]
