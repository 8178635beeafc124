"""Hindi (Devanagari) grapheme-to-phoneme conversion.

Devanagari is an abugida: every consonant letter carries an inherent
schwa (``ə``) unless a vowel sign (matra) or a virama (``्``) follows.
The converter implements:

* the full consonant/vowel/matra tables, including nukta consonants
  (``फ़`` → ``f``, ``ज़`` → ``z``, ``ड़`` → ``ɽ`` ...);
* anusvara (``ं``) as a nasal homorganic with the following consonant
  (``n`` before coronals, ``m`` before labials, ``ŋ`` before velars);
* candrabindu (``ँ``) as nasalization of the preceding vowel;
* visarga (``ः``) as ``h``;
* *schwa deletion*: the inherent schwa of a word-final consonant is
  dropped (``राम`` → ``raːm``, not ``raːmə``), and the standard medial
  rule drops a schwa in the context VC_CV (``जवाहरलाल`` →
  ``dʒəʋaːɦərlaːl`` keeps the first schwa but drops the one after ``ह``
  is resyllabified).

The paper used the Dhvani TTS for this step; this converter is a
self-contained equivalent producing the same style of IPA output.
"""

from __future__ import annotations

from repro.errors import TTPError
from repro.phonetics.inventory import get_phoneme
from repro.phonetics.parse import PhonemeString, parse_ipa
from repro.ttp.base import TTPConverter, parse_table
from repro.ttp.normalize import normalize_indic

# Consonant letters -> IPA.  Dental stops are transcribed with the dental
# diacritic to preserve the dental/retroflex contrast that Devanagari
# maintains and Latin orthography collapses.
_CONSONANTS: dict[str, str] = {
    "क": "k", "ख": "kʰ", "ग": "g", "घ": "gʱ", "ङ": "ŋ",
    "च": "tʃ", "छ": "tʃʰ", "ज": "dʒ", "झ": "dʒʱ", "ञ": "ɲ",
    "ट": "ʈ", "ठ": "ʈʰ", "ड": "ɖ", "ढ": "ɖʱ", "ण": "ɳ",
    "त": "t̪", "थ": "t̪ʰ", "द": "d̪", "ध": "d̪ʱ", "न": "n",
    "प": "p", "फ": "pʰ", "ब": "b", "भ": "bʱ", "म": "m",
    "य": "j", "र": "r", "ल": "l", "व": "ʋ", "ळ": "ɭ",
    "श": "ʃ", "ष": "ʂ", "स": "s", "ह": "ɦ",
    # nukta forms (Perso-Arabic loan sounds)
    "क़": "q", "ख़": "x", "ग़": "ɣ", "ज़": "z", "झ़": "ʒ",
    "ड़": "ɽ", "ढ़": "ɽʱ", "फ़": "f",
    # Dravidian-extension letters ऩ/ऱ/ऴ.  Unlike क़..य़
    # (composition exclusions that NFC leaves decomposed), these
    # recompose under NFC, so the keys are single precomposed points.
    "ऩ": "n", "ऱ": "r", "ऴ": "ɻ",
}

# Independent vowel letters.
_VOWELS: dict[str, str] = {
    "अ": "ə", "आ": "aː", "इ": "ɪ", "ई": "iː", "उ": "ʊ", "ऊ": "uː",
    "ऋ": "rɪ", "ऌ": "lɪ", "ए": "eː", "ऐ": "ɛː", "ओ": "oː", "औ": "ɔː",
    "ऑ": "ɔ", "ॲ": "æ", "ऍ": "ɛ", "ऎ": "ɛ", "ऒ": "ɔ",
}

# Dependent vowel signs (matras).
_MATRAS: dict[str, str] = {
    "ा": "aː", "ि": "ɪ", "ी": "iː", "ु": "ʊ", "ू": "uː",
    "ृ": "rɪ", "ॄ": "riː", "े": "eː", "ै": "ɛː", "ो": "oː", "ौ": "ɔː",
    "ॉ": "ɔ", "ॅ": "ɛ", "ॆ": "ɛ", "ॊ": "ɔ",
}

_VIRAMA = "्"
_ANUSVARA = "ं"
_CANDRABINDU = "ँ"
_VISARGA = "ः"
_NUKTA = "़"
_OM = "ॐ"

# Anusvara assimilates to the place of the following consonant.
_ANUSVARA_NASALS = {
    **dict.fromkeys(("p", "pʰ", "b", "bʱ", "m"), "m"),
    **dict.fromkeys(("k", "kʰ", "g", "gʱ", "ŋ"), "ŋ"),
    **dict.fromkeys(("tʃ", "tʃʰ", "dʒ", "dʒʱ", "ɲ"), "ɲ"),
    **dict.fromkeys(("ʈ", "ʈʰ", "ɖ", "ɖʱ", "ɳ"), "ɳ"),
}

_SCHWA = "ə"

_CONSONANT_PHONEMES = parse_table(_CONSONANTS)
_VOWEL_PHONEMES = parse_table(_VOWELS)
_MATRA_PHONEMES = parse_table(_MATRAS)
_OM_PHONEMES = parse_ipa("oːm")


def _is_vowel_symbol(symbol: str) -> bool:
    return get_phoneme(symbol).is_vowel


def anusvara_for(following: str | None, final: str = "n") -> str:
    """The nasal an anusvara reads as: homorganic with the ``following``
    consonant, ``n`` before any other, ``final`` at the word end."""
    if following is None:
        return final
    return _ANUSVARA_NASALS.get(following, "n")


class HindiConverter(TTPConverter):
    """Devanagari G2P with inherent-schwa handling and schwa deletion."""

    language = "hindi"
    script = "devanagari"

    def __init__(self, delete_medial_schwa: bool = True):
        self.delete_medial_schwa = delete_medial_schwa

    def _word_to_phonemes(self, word: str) -> PhonemeString:
        word = normalize_indic(word)
        # Stage 1: letter-by-letter expansion with inherent schwas.
        segments: list[str] = []
        pending_schwa = False

        def flush_schwa() -> None:
            nonlocal pending_schwa
            if pending_schwa:
                segments.append(_SCHWA)
                pending_schwa = False

        i = 0
        n = len(word)
        while i < n:
            ch = word[i]
            # Combine nukta with the preceding base consonant if present.
            if i + 1 < n and word[i + 1] == _NUKTA:
                combined = ch + _NUKTA
                if combined in _CONSONANTS:
                    flush_schwa()
                    segments.extend(_CONSONANT_PHONEMES[combined])
                    pending_schwa = True
                    i += 2
                    continue
            if ch in _CONSONANTS:
                flush_schwa()
                segments.extend(_CONSONANT_PHONEMES[ch])
                pending_schwa = True
            elif ch in _MATRAS:
                if not pending_schwa:
                    raise TTPError(
                        f"hindi converter: matra {ch!r} without a "
                        f"consonant in {word!r}"
                    )
                pending_schwa = False
                segments.extend(_MATRA_PHONEMES[ch])
            elif ch in _VOWELS:
                flush_schwa()
                segments.extend(_VOWEL_PHONEMES[ch])
            elif ch == _VIRAMA:
                pending_schwa = False
            elif ch == _ANUSVARA:
                flush_schwa()
                nxt = self._next_consonant(word, i + 1)
                segments.append(anusvara_for(nxt))
            elif ch == _CANDRABINDU:
                flush_schwa()
                if segments and _is_vowel_symbol(segments[-1]):
                    segments[-1] = segments[-1] + "̃"
                else:
                    segments.append("n")
            elif ch == _VISARGA:
                flush_schwa()
                segments.append("h")
            elif ch == _OM:
                flush_schwa()
                segments.extend(_OM_PHONEMES)
            else:
                raise TTPError(
                    f"hindi converter: unsupported character {ch!r} "
                    f"in {word!r}"
                )
            i += 1
        flush_schwa()
        return self._delete_schwas(tuple(segments))

    def _next_consonant(self, word: str, start: int) -> str | None:
        for ch in word[start:]:
            if ch in _CONSONANTS:
                return _CONSONANT_PHONEMES[ch][0]
            if ch in _VOWELS or ch in _MATRAS:
                return None
        return None

    def _delete_schwas(self, phonemes: PhonemeString) -> PhonemeString:
        """Word-final schwa deletion, plus the standard medial rule.

        Final: a schwa in absolute word-final position after a consonant
        is dropped.  Medial (VC_CV rule): a schwa flanked by single
        consonants that are themselves flanked by vowels is dropped,
        scanning left to right so earlier deletions feed later contexts.
        """
        phones = list(phonemes)
        # Final schwa deletion.
        if len(phones) >= 2 and phones[-1] == _SCHWA:
            if not _is_vowel_symbol(phones[-2]):
                phones.pop()
        if not self.delete_medial_schwa:
            return tuple(phones)
        # Medial schwa deletion: V C ə C V -> V C C V, applied right to
        # left (Ohala's rule), so जवाहरलाल -> dʒəʋaːɦərlaːl as in the
        # paper's Figure 9.
        i = len(phones) - 3
        while i >= 2:
            if (
                phones[i] == _SCHWA
                and i < len(phones) - 2
                and not _is_vowel_symbol(phones[i - 1])
                and _is_vowel_symbol(phones[i - 2])
                and not _is_vowel_symbol(phones[i + 1])
                and _is_vowel_symbol(phones[i + 2])
            ):
                del phones[i]
            i -= 1
        return tuple(phones)
