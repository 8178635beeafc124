"""Arabic grapheme-to-phoneme conversion (basic, for proper names).

The paper's opening example is matching "the English string *Al-Qaeda*
and its equivalent strings in other scripts, say, Arabic ...", and its
Figure 1 catalog contains Arabic rows.  Arabic script is an *abjad*:
short vowels are normally unwritten, so any converter must infer
vocalization — the hardest instance of the Section 2.1
language-dependent-vocalization problem.

This converter takes the standard pragmatic line for names:

* consonants map directly (emphatics fold to their plain counterparts,
  ``ق`` stays uvular ``q``, ``ع``/hamza become glottal stops);
* written long vowels (``ا`` = aː; ``و``/``ي`` = uː/iː when flanked by
  consonants, w/j before vowels) are honoured, as are explicit harakat
  when present;
* elsewhere a short ``a`` is epenthesized between adjacent consonants
  (the CV-syllable assumption), so unvocalized names still receive a
  plausible, deterministic reading: ``نهرو`` → ``nahruː``.

The inferred vowels are exactly the segments the matcher's weak-vowel
costs discount, so Arabic renderings match their Latin/Indic
counterparts at moderate thresholds despite the missing vocalization.
"""

from __future__ import annotations

from repro.errors import TTPError
from repro.phonetics.inventory import get_phoneme
from repro.phonetics.parse import PhonemeString
from repro.ttp.base import TTPConverter, parse_table
from repro.ttp.normalize import normalize_indic

# Plain consonant values (emphatics folded to plain).
_CONSONANTS: dict[str, str] = {
    "ب": "b", "ت": "t̪", "ث": "θ", "ج": "dʒ", "ح": "h", "خ": "x",
    "د": "d̪", "ذ": "ð", "ر": "r", "ز": "z", "س": "s", "ش": "ʃ",
    "ص": "s", "ض": "d̪", "ط": "t̪", "ظ": "z", "ع": "ʔ", "غ": "ɣ",
    "ف": "f", "ق": "q", "ك": "k", "ل": "l", "م": "m", "ن": "n",
    "ه": "h", "ء": "ʔ", "ؤ": "ʔ", "ئ": "ʔ", "پ": "p", "گ": "g",
    "چ": "tʃ", "ڤ": "v",
}

# Harakat (vowel diacritics) and other marks.
_FATHA = "َ"   # a
_KASRA = "ِ"   # i
_DAMMA = "ُ"   # u
_SUKUN = "ْ"   # no vowel
_SHADDA = "ّ"  # gemination
_TANWIN = {"ً": "an", "ٍ": "in", "ٌ": "un"}

_ALEF = "ا"
_ALEF_MADDA = "آ"
_ALEF_HAMZA = "أ"
_ALEF_HAMZA_BELOW = "إ"
_WAW = "و"
_YEH = "ي"
_TEH_MARBUTA = "ة"
_ALEF_MAQSURA = "ى"
_TATWEEL = "ـ"

_EPENTHETIC = "ə"  # weak: the matcher discounts inferred vowels

_CONSONANT_PHONEMES = parse_table(_CONSONANTS)
_TANWIN_PHONEMES = parse_table(_TANWIN)


class ArabicConverter(TTPConverter):
    """Basic Arabic-script G2P with CV-epenthesis for unwritten vowels."""

    language = "arabic"
    script = "arabic"

    def _word_to_phonemes(self, word: str) -> PhonemeString:
        word = normalize_indic(word).replace(_TATWEEL, "")
        raw = self._letters_to_segments(word)
        return tuple(self._epenthesize(raw))

    def _letters_to_segments(self, word: str) -> list[str]:
        segments: list[str] = []
        i = 0
        n = len(word)
        while i < n:
            ch = word[i]
            nxt = word[i + 1] if i + 1 < n else ""
            if ch in (_ALEF, _ALEF_HAMZA, _ALEF_HAMZA_BELOW, _ALEF_MADDA):
                # Word-initial alef carries a short vowel; medial alef is
                # the long aː.
                if i == 0:
                    segments.append(
                        "i" if ch == _ALEF_HAMZA_BELOW else "a"
                    )
                    if ch == _ALEF_MADDA:
                        segments[-1] = "aː"
                else:
                    segments.append("aː")
            elif ch in (_WAW, _YEH):
                vowel = "uː" if ch == _WAW else "iː"
                glide = "w" if ch == _WAW else "j"
                prev_is_consonant = bool(segments) and not self._is_vowel(
                    segments[-1]
                )
                next_vocalic = nxt in (
                    _ALEF, _ALEF_MADDA, _WAW, _YEH, _FATHA, _KASRA, _DAMMA,
                    _TEH_MARBUTA, _ALEF_MAQSURA,
                )
                if i == 0 or not prev_is_consonant or next_vocalic:
                    segments.append(glide)
                else:
                    segments.append(vowel)
            elif ch == _TEH_MARBUTA:
                segments.append("a")  # -a(t): pausal form for names
            elif ch == _ALEF_MAQSURA:
                segments.append("aː")
            elif ch == _FATHA:
                segments.append("a")
            elif ch == _KASRA:
                segments.append("i")
            elif ch == _DAMMA:
                segments.append("u")
            elif ch == _SUKUN:
                pass  # explicitly no vowel
            elif ch == _SHADDA:
                pass  # gemination is not phonemic for matching
            elif ch in _TANWIN:
                segments.extend(_TANWIN_PHONEMES[ch])
            elif ch in _CONSONANTS:
                segments.extend(_CONSONANT_PHONEMES[ch])
            else:
                raise TTPError(
                    f"arabic converter: unsupported character {ch!r} "
                    f"in {word!r}"
                )
            i += 1
        return segments

    def _epenthesize(self, segments: list[str]) -> list[str]:
        """Insert a short ``a`` inside consonant clusters (CV assumption)."""
        result: list[str] = []
        for segment in segments:
            if (
                result
                and not self._is_vowel(segment)
                and not self._is_vowel(result[-1])
            ):
                result.append(_EPENTHETIC)
            result.append(segment)
        return result

    @staticmethod
    def _is_vowel(symbol: str) -> bool:
        return get_phoneme(symbol).is_vowel
