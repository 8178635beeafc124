"""Tamil grapheme-to-phoneme conversion.

Tamil script is an abugida like Devanagari (inherent vowel ``a``, pulli
``்`` suppressing it) but with a much smaller consonant inventory: the
script has a *single* letter per plosive series and no aspiration marks.
The phonetic value of a plosive is positional (classical sandhi rules):

* word-initial or geminate → voiceless (``க`` = ``k``),
* after a nasal → voiced (``ங்க`` = ``ŋg``),
* between vowels → voiced/lenited (``க`` = ``g``; ``ச`` = ``s``).

This positional voicing — together with the absent aspiration contrast,
the absence of ``f``/``z`` and the five-vowel system — is exactly the
phoneme-set mismatch the paper identifies as the source of fuzziness when
matching Tamil renderings of English or Hindi names.  The paper hand
converted its Tamil strings "assuming phonetic nature of the Tamil
language"; this converter encodes the same assumptions.
"""

from __future__ import annotations

from repro.errors import TTPError
from repro.phonetics.parse import PhonemeString, parse_ipa
from repro.ttp.base import TTPConverter, parse_table
from repro.ttp.normalize import normalize_indic

# Plosive letters with positional (voiceless, voiced) values.
_PLOSIVES: dict[str, tuple[str, str]] = {
    "க": ("k", "g"),
    "ச": ("tʃ", "s"),
    "ட": ("ʈ", "ɖ"),
    "த": ("t̪", "d̪"),
    "ப": ("p", "b"),
    "ற": ("t", "d"),  # geminate ṟṟ = /tt/, ṉṟ = /nd/; lone ṟ handled below
}

# Letters with a fixed value.
_FIXED: dict[str, str] = {
    "ங": "ŋ", "ஞ": "ɲ", "ண": "ɳ", "ந": "n̪", "ம": "m", "ன": "n",
    "ய": "j", "ர": "ɾ", "ல": "l", "வ": "ʋ", "ழ": "ɻ", "ள": "ɭ",
    # Grantha letters for loanwords.
    "ஜ": "dʒ", "ஶ": "ʃ", "ஷ": "ʂ", "ஸ": "s", "ஹ": "h",
}

_NASAL_SYMBOLS = frozenset({"ŋ", "ɲ", "ɳ", "n̪", "m", "n"})

# Independent vowels.
_VOWELS: dict[str, str] = {
    "அ": "a", "ஆ": "aː", "இ": "i", "ஈ": "iː", "உ": "u", "ஊ": "uː",
    "எ": "e", "ஏ": "eː", "ஐ": "ai", "ஒ": "o", "ஓ": "oː", "ஔ": "au",
}

# Dependent vowel signs (matras).
_MATRAS: dict[str, str] = {
    "ா": "aː", "ி": "i", "ீ": "iː", "ு": "u", "ூ": "uː",
    "ெ": "e", "ே": "eː", "ை": "ai", "ொ": "o", "ோ": "oː", "ௌ": "au",
}

_PULLI = "்"
_AYTHAM = "ஃ"
_INHERENT = ("a",)

_PLOSIVE_PHONEMES = {
    letter: (parse_ipa(voiceless), parse_ipa(voiced))
    for letter, (voiceless, voiced) in _PLOSIVES.items()
}
_FIXED_PHONEMES = parse_table(_FIXED)
_VOWEL_PHONEMES = parse_table(_VOWELS)
_MATRA_PHONEMES = parse_table(_MATRAS)


class TamilConverter(TTPConverter):
    """Tamil script G2P with classical positional voicing rules."""

    language = "tamil"
    script = "tamil"

    def _word_to_phonemes(self, word: str) -> PhonemeString:
        word = normalize_indic(word)
        letters = self._segment(word)
        phonemes: list[str] = []
        for idx, (letter, vowel) in enumerate(letters):
            if letter is None:
                # Independent vowel: ``vowel`` already holds its value.
                phonemes.extend(vowel or ())
                continue
            # A geminate (க்க) is phonemically one long stop; emit a
            # single phoneme for the pair, letting the voicing rule see
            # the geminate context.
            if (
                vowel is None
                and idx + 1 < len(letters)
                and letters[idx + 1][0] == letter
            ):
                continue
            phonemes.extend(self._consonant_value(letters, idx, phonemes))
            if vowel is not None:
                phonemes.extend(vowel)
        return tuple(phonemes)

    def _segment(
        self, word: str
    ) -> list[tuple[str | None, PhonemeString | None]]:
        """Split a word into (consonant, vowel) letter units.

        ``(None, v)`` is an independent vowel; ``(c, None)`` is a pure
        consonant (pulli); ``(c, v)`` a consonant+vowel syllable, with
        ``v`` defaulting to the inherent ``a``.
        """
        units: list[tuple[str | None, PhonemeString | None]] = []
        i = 0
        n = len(word)
        while i < n:
            ch = word[i]
            if ch in _VOWELS:
                units.append((None, _VOWEL_PHONEMES[ch]))
                i += 1
            elif ch in _PLOSIVES or ch in _FIXED:
                # க்ஷ (kṣa) is the one conjunct worth special-casing.
                if (
                    ch == "க"
                    and i + 2 < n
                    and word[i + 1] == _PULLI
                    and word[i + 2] == "ஷ"
                ):
                    nxt = word[i + 3] if i + 3 < n else ""
                    if nxt in _MATRAS:
                        units.append(("க்ஷ", _MATRA_PHONEMES[nxt]))
                        i += 4
                    elif nxt == _PULLI:
                        units.append(("க்ஷ", None))
                        i += 4
                    else:
                        units.append(("க்ஷ", _INHERENT))
                        i += 3
                    continue
                nxt = word[i + 1] if i + 1 < n else ""
                if nxt in _MATRAS:
                    units.append((ch, _MATRA_PHONEMES[nxt]))
                    i += 2
                elif nxt == _PULLI:
                    units.append((ch, None))
                    i += 2
                else:
                    units.append((ch, _INHERENT))
                    i += 1
            elif ch == _AYTHAM:
                # Aytham before ப spells /f/ in loanwords; alone it is /h/.
                if i + 1 < n and word[i + 1] == "ப":
                    nxt2 = word[i + 2] if i + 2 < n else ""
                    if nxt2 in _MATRAS:
                        units.append(("ஃப", _MATRA_PHONEMES[nxt2]))
                        i += 3
                    elif nxt2 == _PULLI:
                        units.append(("ஃப", None))
                        i += 3
                    else:
                        units.append(("ஃப", _INHERENT))
                        i += 2
                else:
                    units.append(("ஃ", None))
                    i += 1
            else:
                raise TTPError(
                    f"tamil converter: unsupported character {ch!r} "
                    f"in {word!r}"
                )
        return units

    def _consonant_value(
        self,
        units: list[tuple[str | None, PhonemeString | None]],
        idx: int,
        emitted: list[str],
    ) -> PhonemeString:
        letter, _vowel = units[idx]
        assert letter is not None
        if letter == "க்ஷ":
            return ("k", "ʂ")
        if letter == "ஃப":
            return ("f",)
        if letter == "ஃ":
            return ("h",)
        if letter in _FIXED:
            return _FIXED_PHONEMES[letter]
        voiceless, voiced = _PLOSIVE_PHONEMES[letter]
        word_initial = idx == 0
        prev_letter = units[idx - 1][0] if idx > 0 else None
        prev_is_pure = idx > 0 and units[idx - 1][1] is None
        geminate = prev_is_pure and prev_letter == letter
        after_nasal = bool(emitted) and emitted[-1] in _NASAL_SYMBOLS
        after_stop = prev_is_pure and prev_letter in _PLOSIVES
        if letter == "ற":
            # ṟ: trill as a lone consonant, stop value in clusters.
            if geminate:
                return voiceless
            if after_nasal:
                return voiced
            return ("r",)
        if word_initial or geminate or after_stop:
            return voiceless
        if after_nasal:
            return voiced
        # A coda stop (pure consonant before another consonant or at the
        # word end) stays voiceless: பக்தி = pakti, ஸ்மித் = smit̪.
        if _vowel is None:
            return voiceless
        # Intervocalic / post-liquid onset: lenited (voiced) value.
        return voiced
