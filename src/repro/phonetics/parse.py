"""Tokenizing IPA strings into phoneme sequences.

The LexEQUAL edit distance operates on *phonemes*, not on Unicode code
points: the affricate ``tʃ`` is one symbol, the aspirate ``kʰ`` is one
symbol, the long vowel ``aː`` is one symbol.  Getting this wrong skews
string lengths and therefore the threshold ``e * min(|T_l|, |T_r|)`` of the
paper's algorithm, so all phoneme-string handling goes through this module.

The tokenizer is greedy longest-match against the inventory, with the
length/nasalization/aspiration marks folded into the preceding base symbol.
Suprasegmentals (stress, syllable breaks, tie bars) are *removed*, matching
the paper's preprocessing: "those symbols specific to speech generation,
such as the supra-segmentals, diacritics, tones and accents were removed".
"""

from __future__ import annotations

import unicodedata

from repro.errors import PhonemeError
from repro.phonetics.inventory import (
    ASPIRATION_MARK,
    BREATHY_MARK,
    INVENTORY,
    LENGTH_MARK,
    NASAL_MARK,
    is_known_symbol,
)

#: A phoneme string: a tuple of inventory symbols.
PhonemeString = tuple[str, ...]

# Suprasegmentals and other speech-generation marks dropped on input.
_IGNORED = frozenset(
    {
        "ˈ",  # primary stress
        "ˌ",  # secondary stress
        ".",  # syllable break
        "‿",  # linking
        "|",  # minor group
        "‖",  # major group
        "↗",
        "↘",
        " ",
        "\t",
        "˞",  # rhoticity hook (treated as plain vowel)
        "̯",  # non-syllabic
        "̩",  # syllabic
        "͡",  # tie bar (affricates are spelled without it here)
        "͜",
        "ʼ",  # ejective mark (not contrastive for our languages)
    }
)

# Common IPA spellings normalized to the inventory's canonical symbol.
_ALIASES = {
    "ɡ": "g",  # U+0261 LATIN SMALL LETTER SCRIPT G
    "ε": "ɛ",  # Greek epsilon occasionally pasted for open-mid e
    "ǝ": "ə",  # U+01DD turned e
    "ɚ": "ə",  # r-colored schwa folded to schwa
    "ɝ": "ɜ",
    "ă": "ə",
}

_MODIFIERS = (LENGTH_MARK, NASAL_MARK, ASPIRATION_MARK, BREATHY_MARK)


def _normalize(text: str) -> str:
    # NFD so precomposed nasal vowels (ẽ, ã, ...) decompose into the
    # base-plus-combining-tilde form the inventory uses.
    text = unicodedata.normalize("NFD", text)
    return "".join(_ALIASES.get(ch, ch) for ch in text)


def parse_ipa(text: str) -> PhonemeString:
    """Parse an IPA string into a tuple of inventory phoneme symbols.

    >>> parse_ipa("neːɦru")
    ('n', 'eː', 'ɦ', 'r', 'u')
    >>> parse_ipa("dʒəʋaːɦər")[0]
    'dʒ'

    Raises :class:`~repro.errors.PhonemeError` if the string contains a
    character that is neither an inventory symbol, a modifier, nor an
    ignorable suprasegmental.
    """
    text = _normalize(text)
    phonemes: list[str] = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch in _IGNORED:
            i += 1
            continue
        if ch in _MODIFIERS:
            # A modifier must attach to a preceding phoneme.
            if not phonemes:
                raise PhonemeError(
                    f"modifier {ch!r} at start of IPA string {text!r}"
                )
            merged = phonemes[-1] + ch
            if is_known_symbol(merged):
                phonemes[-1] = merged
                i += 1
                continue
            # e.g. a stray length mark on a consonant: treat gemination
            # as a repetition of the consonant.
            if ch == LENGTH_MARK:
                phonemes.append(phonemes[-1])
                i += 1
                continue
            raise PhonemeError(
                f"cannot attach modifier {ch!r} to {phonemes[-1]!r} "
                f"in IPA string {text!r}"
            )
        match = _longest_match(text, i)
        if match is None:
            raise PhonemeError(
                f"unknown IPA symbol {ch!r} at offset {i} in {text!r}"
            )
        phonemes.append(match)
        i += len(match)
    return tuple(phonemes)


#: Probe widths, longest first: the longest inventory symbol is 3
#: characters.
_WIDTHS = tuple(range(max(map(len, INVENTORY)), 0, -1))


def _longest_match(text: str, start: int) -> str | None:
    # Probing the longest slice first makes the first hit the greedy
    # match.
    for width in _WIDTHS:
        symbol = text[start : start + width]
        if symbol in INVENTORY:
            return symbol
    return None


def ipa_length(text: str) -> int:
    """Number of phonemes in an IPA string (not Unicode code points)."""
    return len(parse_ipa(text))


def format_phonemes(phonemes: PhonemeString) -> str:
    """Inverse of :func:`parse_ipa` for canonical phoneme tuples."""
    return "".join(phonemes)


def validate_phoneme_string(phonemes: PhonemeString) -> None:
    """Raise :class:`~repro.errors.PhonemeError` on non-inventory symbols."""
    for sym in phonemes:
        if not is_known_symbol(sym):
            raise PhonemeError(f"unknown phoneme symbol {sym!r}")


def all_symbols() -> tuple[str, ...]:
    """Every inventory symbol, in a stable order (for property tests)."""
    return tuple(sorted(INVENTORY))
