"""Folding phonemes onto a canonical cross-language matching alphabet.

Paper Section 4.1: "those symbols specific to speech generation, such as
the supra-segmentals, diacritics, tones and accents were removed".  The
sample transcriptions of Figure 9 show the effect — English, Hindi and
Tamil strings share one loose phoneme alphabet (``neiru``, ``Indiya``,
``junəv3rsīti``) in which purely sub-phonemic distinctions have been
erased before any matching happens.

This module applies that preprocessing: distinctions that never separate
*names* across scripts are folded —

* length and nasalization marks are dropped (``eː`` → ``e``);
* dental diacritics are dropped (``t̪`` → ``t``), folding the Indic
  dental series onto the plain coronals;
* the rhotic family collapses to ``r`` and the lateral family to ``l``;
* lax/tense vowel pairs collapse (``ɪ`` → ``i``, ``ʊ`` → ``u``) and the
  NURSE vowel joins schwa;
* ``ʋ`` → ``v``, ``ɦ`` → ``h``, ``ʂ`` → ``ʃ``, ``ɳ`` → ``n``.

What remains — voicing, aspiration, retroflexion of stops, vowel quality
classes — is exactly the residue the Clustered Edit Distance is designed
to price.  Folding is applied by the TTP registry on every transform
(disable with ``TTPRegistry(fold=False)`` for raw transcriptions).
"""

from __future__ import annotations

from repro.phonetics.inventory import (
    ASPIRATION_MARK,
    BREATHY_MARK,
    INVENTORY,
    LENGTH_MARK,
    NASAL_MARK,
    get_phoneme,
    is_known_symbol,
)
from repro.phonetics.parse import PhonemeString, validate_phoneme_string

# Base-symbol folds applied after stripping length/nasal marks.  The
# aspiration mark is re-attached after folding the base.
_BASE_FOLDS: dict[str, str] = {
    # coronal diacritics
    "t̪": "t",
    "d̪": "d",
    "n̪": "n",
    # rhotics and laterals
    "ɾ": "r",
    "ɹ": "r",
    "ɽ": "r",
    "ɻ": "r",
    "ɭ": "l",
    "ɫ": "l",
    "ʎ": "l",
    # laryngeals and glides
    "ɦ": "h",
    "ʋ": "v",
    # sibilants
    "ʂ": "ʃ",
    "ʐ": "ʒ",
    "ç": "ʃ",
    # nasals
    "ɳ": "n",
    "ɲ": "n",
    # vowels: lax/tense and rhotic-adjacent centrals
    "ɪ": "i",
    "ʊ": "u",
    "ɜ": "ə",
    "ɐ": "ə",
    "ɯ": "u",
    "y": "i",
    "ø": "e",
    "œ": "ɛ",
    "ɒ": "ɔ",
}


def fold_symbol(symbol: str) -> str:
    """Fold one inventory symbol to its canonical matching form."""
    ph = get_phoneme(symbol)  # validates
    del ph
    base = symbol
    aspirated = ""
    for mark in (LENGTH_MARK, NASAL_MARK):
        base = base.replace(mark, "")
    if base.endswith(ASPIRATION_MARK) or base.endswith(BREATHY_MARK):
        aspirated = base[-1]
        base = base[:-1]
    folded = _BASE_FOLDS.get(base, base)
    if aspirated:
        candidate = folded + (
            BREATHY_MARK if get_phoneme(folded).voiced else ASPIRATION_MARK
        )
        # ɽʱ folds through r, which takes no aspiration mark: drop it.
        if is_known_symbol(candidate):
            return candidate
        return folded
    return folded


#: Every inventory symbol's fold, computed once.
_FOLDS: dict[str, str] = {symbol: fold_symbol(symbol) for symbol in INVENTORY}


def fold_phonemes(phonemes: PhonemeString) -> PhonemeString:
    """Fold a phoneme string onto the canonical matching alphabet.

    A symbol outside the inventory goes through :func:`fold_symbol`,
    which accepts precomposed spellings and raises
    :class:`~repro.errors.PhonemeError` for the rest.
    """
    return tuple([_FOLDS.get(sym) or fold_symbol(sym) for sym in phonemes])


def fold_known(phonemes: PhonemeString) -> PhonemeString:
    """:func:`fold_phonemes` for inventory symbols only: the fold-table
    lookup is the symbol check, and a symbol outside the inventory
    raises the :class:`~repro.errors.PhonemeError` of
    :func:`~repro.phonetics.parse.validate_phoneme_string`."""
    try:
        return tuple(map(_FOLDS.__getitem__, phonemes))
    except KeyError:
        validate_phoneme_string(phonemes)
        raise
