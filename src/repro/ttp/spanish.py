"""Spanish grapheme-to-phoneme conversion.

Spanish orthography is highly regular; the converter reuses the NRL rule
engine with a compact table (Latin-American seseo: ``z`` and soft ``c``
both map to ``s``).  Needed for the paper's motivating examples
(``Jesus``/``Hesus``, ``Español``) and for exercising the
language-dependent-vocalization scenario of Section 2.1: the same Latin
string run through the English and Spanish converters yields different
phoneme strings.
"""

from __future__ import annotations

from repro.phonetics.parse import PhonemeString
from repro.ttp.base import TTPConverter
from repro.ttp.normalize import split_words, strip_accents
from repro.ttp.rules import apply_rules, compile_rules

_RULES: list[tuple[str, str, str, str]] = [
    # A
    ("", "a", "", "a"),
    # B
    ("", "b", "", "b"),
    # C
    ("", "ch", "", "tʃ"),
    ("", "c", "+", "s"),
    ("", "c", "", "k"),
    # D
    ("", "d", "", "d"),
    # E
    ("", "e", "", "e"),
    # F
    ("", "f", "", "f"),
    # G
    ("", "gu", "+", "g"),
    ("", "g", "+", "x"),
    ("", "g", "", "g"),
    # H (silent)
    ("", "h", "", ""),
    # I
    ("", "i", "#", "j"),
    ("", "i", "", "i"),
    # J
    ("", "j", "", "x"),
    # K
    ("", "k", "", "k"),
    # L
    ("", "ll", "", "ʎ"),
    ("", "l", "", "l"),
    # M
    ("", "m", "", "m"),
    # N (ñ is normalized to n + combining tilde and pre-substituted below)
    ("", "nh", "", "ɲ"),
    ("", "n", "", "n"),
    # O
    ("", "o", "", "o"),
    # P
    ("", "p", "", "p"),
    # Q
    ("", "qu", "", "k"),
    ("", "q", "", "k"),
    # R
    (" ", "rr", "", "r"),
    ("", "rr", "", "r"),
    (" ", "r", "", "r"),
    ("", "r", "", "ɾ"),
    # S
    ("", "s", "", "s"),
    # T
    ("", "t", "", "t"),
    # U
    ("", "u", "#", "w"),
    ("", "u", "", "u"),
    # V (betacism: v = b)
    ("", "v", "", "b"),
    # W
    ("", "w", "", "w"),
    # X
    ("", "x", "", "ks"),
    # Y
    ("", "y", " ", "i"),
    ("", "y", "", "j"),
    # Z (seseo)
    ("", "z", "", "s"),
]


_INDEX = compile_rules(_RULES)


class SpanishConverter(TTPConverter):
    """Rule-based Spanish G2P (Latin-American pronunciation)."""

    language = "spanish"
    script = "latin"

    def _split(self, text: str) -> list[str]:
        return split_words(text)

    def _word_to_phonemes(self, word: str) -> PhonemeString:
        # ñ must survive accent stripping: rewrite it to the private
        # digraph "nh" before folding, then strip the remaining accents.
        lowered = word.lower().replace("ñ", "nh")
        normalized = strip_accents(lowered)
        normalized = "".join(ch for ch in normalized if ch.isalpha())
        if not normalized:
            return ()
        return apply_rules(normalized, _INDEX, self.language)
