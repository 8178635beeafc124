"""Kannada grapheme-to-phoneme conversion.

Kannada — the language of Bangalore, whose telephone directory supplied
the paper's Indian names — is an abugida like Devanagari, with two
relevant phonological differences:

* the short/long contrast extends to the mid vowels (ಎ/ಏ = e/eː,
  ಒ/ಓ = o/oː), which Devanagari lacks;
* there is no schwa deletion: word-final inherent vowels are pronounced
  (ರಾಮ = ``raːma``, where Hindi राम = ``raːm``).

Like Devanagari (and unlike Tamil) it keeps the voicing and aspiration
contrasts, so its loss profile sits between the two — useful for
exercising LexEQUAL with a fourth script
(``build_lexicon(languages=("english", "hindi", "tamil", "kannada"))``).
"""

from __future__ import annotations

from repro.errors import TTPError
from repro.phonetics.parse import PhonemeString
from repro.ttp.base import TTPConverter, parse_table
from repro.ttp.hindi import anusvara_for
from repro.ttp.normalize import normalize_indic

_CONSONANTS: dict[str, str] = {
    "ಕ": "k", "ಖ": "kʰ", "ಗ": "g", "ಘ": "gʱ", "ಙ": "ŋ",
    "ಚ": "tʃ", "ಛ": "tʃʰ", "ಜ": "dʒ", "ಝ": "dʒʱ", "ಞ": "ɲ",
    "ಟ": "ʈ", "ಠ": "ʈʰ", "ಡ": "ɖ", "ಢ": "ɖʱ", "ಣ": "ɳ",
    "ತ": "t̪", "ಥ": "t̪ʰ", "ದ": "d̪", "ಧ": "d̪ʱ", "ನ": "n",
    "ಪ": "p", "ಫ": "pʰ", "ಬ": "b", "ಭ": "bʱ", "ಮ": "m",
    "ಯ": "j", "ರ": "r", "ಲ": "l", "ವ": "ʋ",
    "ಶ": "ʃ", "ಷ": "ʂ", "ಸ": "s", "ಹ": "h",
    "ಳ": "ɭ", "ೞ": "ɻ", "ಱ": "r", "ೠ": "r",
    "ಫ಼": "f", "ಜ಼": "z",
}

_VOWELS: dict[str, str] = {
    "ಅ": "a", "ಆ": "aː", "ಇ": "i", "ಈ": "iː", "ಉ": "u", "ಊ": "uː",
    "ಋ": "ri", "ಌ": "li", "ಎ": "e", "ಏ": "eː", "ಐ": "ai", "ಒ": "o",
    "ಓ": "oː", "ಔ": "au",
}

_MATRAS: dict[str, str] = {
    "ಾ": "aː", "ಿ": "i", "ೀ": "iː", "ು": "u", "ೂ": "uː",
    "ೃ": "ri", "ೄ": "riː", "ೆ": "e", "ೇ": "eː", "ೈ": "ai", "ೊ": "o",
    "ೋ": "oː", "ೌ": "au",
}

_VIRAMA = "್"
_ANUSVARA = "ಂ"
_VISARGA = "ಃ"
_NUKTA = "಼"
_INHERENT = "a"

_CONSONANT_PHONEMES = parse_table(_CONSONANTS)
_VOWEL_PHONEMES = parse_table(_VOWELS)
_MATRA_PHONEMES = parse_table(_MATRAS)


class KannadaConverter(TTPConverter):
    """Kannada script G2P (no schwa deletion, full length contrasts)."""

    language = "kannada"
    script = "kannada"

    def _word_to_phonemes(self, word: str) -> PhonemeString:
        word = normalize_indic(word)
        phonemes: list[str] = []
        pending_vowel = False  # an inherent vowel is owed

        def flush() -> None:
            nonlocal pending_vowel
            if pending_vowel:
                phonemes.append(_INHERENT)
                pending_vowel = False

        i = 0
        n = len(word)
        while i < n:
            ch = word[i]
            if i + 1 < n and word[i + 1] == _NUKTA:
                combined = ch + _NUKTA
                if combined in _CONSONANTS:
                    flush()
                    phonemes.extend(_CONSONANT_PHONEMES[combined])
                    pending_vowel = True
                    i += 2
                    continue
            if ch in _CONSONANTS:
                flush()
                phonemes.extend(_CONSONANT_PHONEMES[ch])
                pending_vowel = True
            elif ch in _MATRAS:
                if not pending_vowel:
                    raise TTPError(
                        f"kannada converter: matra {ch!r} without a "
                        f"consonant in {word!r}"
                    )
                pending_vowel = False
                phonemes.extend(_MATRA_PHONEMES[ch])
            elif ch in _VOWELS:
                flush()
                phonemes.extend(_VOWEL_PHONEMES[ch])
            elif ch == _VIRAMA:
                pending_vowel = False
            elif ch == _ANUSVARA:
                flush()
                nxt = self._next_consonant(word, i + 1)
                # A word-final anusvara reads m in Kannada (ರಾಮಂ).
                phonemes.append(anusvara_for(nxt, final="m"))
            elif ch == _VISARGA:
                flush()
                phonemes.append("h")
            else:
                raise TTPError(
                    f"kannada converter: unsupported character {ch!r} "
                    f"in {word!r}"
                )
            i += 1
        flush()  # Kannada keeps the final inherent vowel
        return tuple(phonemes)

    def _next_consonant(self, word: str, start: int) -> str | None:
        for ch in word[start:]:
            if ch in _CONSONANTS:
                return _CONSONANT_PHONEMES[ch][0]
            if ch in _VOWELS or ch in _MATRAS:
                return None
        return None
