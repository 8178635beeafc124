"""Modern Greek grapheme-to-phoneme conversion.

Modern Greek orthography is close to phonemic once the digraphs are
known, so this converter is a longest-match table with two contextual
rules: ``αυ``/``ευ`` voice-assimilate to the following segment, and ``γ``
palatalizes before front vowels.  Accented vowels are folded to their
plain forms (stress is suprasegmental and the paper strips it).
"""

from __future__ import annotations

import unicodedata

from repro.errors import TTPError
from repro.phonetics.parse import PhonemeString
from repro.ttp.base import TTPConverter, parse_table

# Digraphs first (longest match wins).
_DIGRAPHS: dict[str, str] = {
    "ου": "u",
    "αι": "ɛ",
    "ει": "i",
    "οι": "i",
    "υι": "i",
    "μπ": "b",
    "ντ": "d",
    "γκ": "g",
    "γγ": "ŋg",
    "τσ": "ts",
    "τζ": "dz",
}

_SINGLES: dict[str, str] = {
    "α": "a", "β": "v", "δ": "ð", "ε": "ɛ", "ζ": "z", "η": "i",
    "θ": "θ", "ι": "i", "κ": "k", "λ": "l", "μ": "m", "ν": "n",
    "ξ": "ks", "ο": "o", "π": "p", "ρ": "r", "σ": "s", "ς": "s",
    "τ": "t", "υ": "i", "φ": "f", "χ": "x", "ψ": "ps", "ω": "o",
}

_FRONT_VOWELS = frozenset("ειηυ")
_VOWELS = frozenset("αεηιουω")
# Voiced segments trigger [v] in αυ/ευ; voiceless trigger [f].
_VOICELESS_LETTERS = frozenset("θκξπστφχψ")

_DIGRAPH_PHONEMES = parse_table(_DIGRAPHS)
_SINGLE_PHONEMES = parse_table(_SINGLES)


def _fold(text: str) -> str:
    """Lowercase and strip Greek accents/diaeresis."""
    lowered = text.lower()
    decomposed = unicodedata.normalize("NFD", lowered)
    stripped = "".join(
        ch for ch in decomposed if not unicodedata.combining(ch)
    )
    return unicodedata.normalize("NFC", stripped)


class GreekConverter(TTPConverter):
    """Modern Greek G2P (monotonic orthography)."""

    language = "greek"
    script = "greek"

    def _word_to_phonemes(self, word: str) -> PhonemeString:
        word = _fold(word)
        phonemes: list[str] = []
        i = 0
        n = len(word)
        while i < n:
            pair = word[i : i + 2]
            ch = word[i]
            if pair in ("αυ", "ευ"):
                vowel = "a" if ch == "α" else "ɛ"
                nxt = word[i + 2] if i + 2 < n else ""
                fricative = "f" if (not nxt or nxt in _VOICELESS_LETTERS) else "v"
                phonemes += (vowel, fricative)
                i += 2
                continue
            if pair in _DIGRAPHS:
                phonemes.extend(_DIGRAPH_PHONEMES[pair])
                i += 2
                continue
            if ch == "γ":
                nxt = word[i + 1] if i + 1 < n else ""
                value = "j" if nxt in _FRONT_VOWELS else "ɣ"
                phonemes.append(value)
                i += 1
                continue
            if ch in _SINGLES:
                phonemes.extend(_SINGLE_PHONEMES[ch])
                i += 1
                continue
            raise TTPError(
                f"greek converter: unsupported character {ch!r} in {word!r}"
            )
        return tuple(phonemes)
