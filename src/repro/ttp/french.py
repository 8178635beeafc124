"""French grapheme-to-phoneme conversion.

A compact NRL-engine rule table good for names and the paper's examples
(``René`` → ``ʁene`` is transcribed ``ɾene`` — we use the tap for French
r, keeping it inside the liquids cluster; ``École`` → ``ekɔl``;
``Descartes`` → ``dɛskaɾt``).  Covers the major silent-final-consonant,
nasal-vowel and digraph patterns; it is intentionally not a full French
phonologizer — names are the target domain, as in the paper.
"""

from __future__ import annotations

from repro.phonetics.parse import PhonemeString
from repro.ttp.base import TTPConverter
from repro.ttp.normalize import split_words
from repro.ttp.rules import apply_rules, compile_rules
import unicodedata

_RULES: list[tuple[str, str, str, str]] = [
    # A
    ("", "aine", " ", "ɛn"),
    ("", "ain", "", "ɛ̃"),
    ("", "aim", "", "ɛ̃"),
    ("", "ais", " ", "ɛ"),
    ("", "ait", " ", "ɛ"),
    ("", "ai", "", "ɛ"),
    ("", "au", "", "o"),
    ("", "an", "#", "an"),
    ("", "an", "n", "an"),
    ("", "am", "#", "am"),
    ("", "an", "", "ɑ̃"),
    ("", "am", "^", "ɑ̃"),
    ("", "ay", "", "ɛj"),
    ("", "a", "", "a"),
    # B
    ("", "b", " ", "b"),
    ("", "b", "", "b"),
    # C
    ("", "ch", "", "ʃ"),
    ("", "c", "+", "s"),
    ("", "ck", "", "k"),
    ("", "c", " ", "k"),
    ("", "c", "", "k"),
    # D  (final d silent)
    ("", "d", " ", ""),
    ("", "d", "", "d"),
    # E
    ("", "eaux", " ", "o"),
    ("", "eau", "", "o"),
    ("", "ein", "", "ɛ̃"),
    ("", "eu", "", "ø"),
    ("", "en", "#", "ən"),
    ("", "en", "n", "ɛn"),
    ("", "en", " ", "ɑ̃"),
    ("", "en", "", "ɑ̃"),
    ("", "em", "^", "ɑ̃"),
    ("", "er", " ", "e"),
    ("", "ez", " ", "e"),
    ("", "et", " ", "ɛ"),
    ("", "es", " ", ""),
    ("^", "e", " ", ""),
    ("", "e", " ", ""),
    ("", "e", "^^", "ɛ"),
    ("", "e", "", "ə"),
    # F
    ("", "f", "", "f"),
    # G
    ("", "gn", "", "ɲ"),
    ("", "gu", "+", "g"),
    ("", "g", "+", "ʒ"),
    ("", "g", " ", ""),
    ("", "g", "", "g"),
    # H (silent)
    ("", "h", "", ""),
    # I
    ("", "in", "#", "in"),
    ("", "in", "n", "in"),
    ("", "in", "", "ɛ̃"),
    ("", "im", "^", "ɛ̃"),
    ("", "ill", "#", "ij"),
    ("", "i", "#", "j"),
    ("", "i", "", "i"),
    # J
    ("", "j", "", "ʒ"),
    # K
    ("", "k", "", "k"),
    # L
    ("", "ll", "", "l"),
    ("", "l", "", "l"),
    # M
    ("", "m", "", "m"),
    # N
    ("", "nn", "", "n"),
    ("", "n", "", "n"),
    # O
    ("", "ou", "", "u"),
    ("", "oi", "", "wa"),
    ("", "on", "#", "ɔn"),
    ("", "on", "n", "ɔn"),
    ("", "on", "", "ɔ̃"),
    ("", "om", "^", "ɔ̃"),
    ("", "o", " ", "o"),
    ("", "o", "", "ɔ"),
    # P
    ("", "ph", "", "f"),
    ("", "p", " ", ""),
    ("", "p", "", "p"),
    # Q
    ("", "qu", "", "k"),
    ("", "q", "", "k"),
    # R
    ("", "r", "", "ɾ"),
    # S
    ("", "ss", "", "s"),
    ("#", "s", "#", "z"),
    ("", "s", " ", ""),
    ("", "s", "", "s"),
    # T
    ("", "tion", "", "sjɔ̃"),
    ("", "t", " ", ""),
    ("", "t", "", "t"),
    # U
    ("", "un", " ", "œ̃"),
    ("", "u", "", "y"),
    # V
    ("", "v", "", "v"),
    # W
    ("", "w", "", "v"),
    # X
    ("", "x", " ", ""),
    ("", "x", "", "ks"),
    # Y
    ("", "y", "#", "j"),
    ("", "y", "", "i"),
    # Z
    ("", "z", " ", ""),
    ("", "z", "", "z"),
]

# Accented letters that change the rule outcome are rewritten to
# unambiguous spellings before accent stripping.
_PRE_SUBSTITUTIONS = (
    ("é", "ey_"),  # handled by a dedicated fragment below
    ("è", "e_"),
    ("ê", "e_"),
    ("ë", "e_"),
    ("ç", "s_"),
)


# Dedicated fragments for the pre-substituted accented letters, tried
# before the table's rules.
_ACCENT_RULES: list[tuple[str, str, str, str]] = [
    ("", "ey_", "", "e"),   # é
    ("", "e_", "", "ɛ"),    # è/ê/ë
    ("", "s_", "", "s"),    # ç
]

_INDEX = compile_rules(_ACCENT_RULES + _RULES)


class FrenchConverter(TTPConverter):
    """Rule-based French G2P for proper names."""

    language = "french"
    script = "latin"

    def _split(self, text: str) -> list[str]:
        return split_words(text)

    def _word_to_phonemes(self, word: str) -> PhonemeString:
        lowered = unicodedata.normalize("NFC", word.lower())
        for accented, replacement in _PRE_SUBSTITUTIONS:
            lowered = lowered.replace(accented, replacement)
        decomposed = unicodedata.normalize("NFD", lowered)
        normalized = "".join(
            ch
            for ch in decomposed
            if not unicodedata.combining(ch) and (ch.isalpha() or ch == "_")
        )
        if not normalized:
            return ()
        return apply_rules(normalized, _INDEX, self.language)
