"""The IPA phoneme inventory used throughout the library.

Every phoneme that a :mod:`repro.ttp` converter may emit is described here
with its articulatory features.  The features drive two things:

* the phoneme-similarity measure (:mod:`repro.phonetics.features`), which
  in turn drives automatic phoneme clustering;
* sanity checking — :func:`repro.phonetics.parse.parse_ipa` rejects
  symbols that are not in the inventory, so a converter bug surfaces as a
  loud :class:`~repro.errors.PhonemeError` instead of silently degrading
  match quality.

The inventory intentionally covers the union of the phoneme sets of the
languages the paper exercises (English, Hindi, Tamil, Greek, plus the
French/Spanish examples): stops with the Indic aspiration contrast,
retroflexes, the English interdental fricatives, front rounded vowels for
French, and so on.  Length (``ː``) and nasalization (combining tilde) are
treated as modifiers by the parser and map onto the ``long`` and ``nasal``
flags of the base phoneme.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace

from repro.errors import PhonemeError


class PhonemeClass(enum.Enum):
    """Top-level split of the inventory."""

    CONSONANT = "consonant"
    VOWEL = "vowel"


class Place(enum.Enum):
    """Place of articulation for consonants."""

    BILABIAL = "bilabial"
    LABIODENTAL = "labiodental"
    DENTAL = "dental"
    ALVEOLAR = "alveolar"
    POSTALVEOLAR = "postalveolar"
    RETROFLEX = "retroflex"
    PALATAL = "palatal"
    VELAR = "velar"
    UVULAR = "uvular"
    GLOTTAL = "glottal"


class Manner(enum.Enum):
    """Manner of articulation for consonants."""

    PLOSIVE = "plosive"
    NASAL = "nasal"
    TRILL = "trill"
    TAP = "tap"
    FRICATIVE = "fricative"
    AFFRICATE = "affricate"
    APPROXIMANT = "approximant"
    LATERAL = "lateral"


class Height(enum.Enum):
    """Vowel height, ordered from close (high) to open (low)."""

    CLOSE = 0
    NEAR_CLOSE = 1
    CLOSE_MID = 2
    MID = 3
    OPEN_MID = 4
    NEAR_OPEN = 5
    OPEN = 6


class Backness(enum.Enum):
    """Vowel backness, ordered front to back."""

    FRONT = 0
    CENTRAL = 1
    BACK = 2


@dataclass(frozen=True)
class Phoneme:
    """A single phoneme with its articulatory feature bundle.

    ``symbol`` is the canonical IPA spelling, possibly multi-character
    (affricates such as ``tʃ``, aspirates such as ``kʰ``, long vowels such
    as ``aː``).  Instances are immutable and interned in :data:`INVENTORY`.
    """

    symbol: str
    klass: PhonemeClass
    # Consonant features (None for vowels)
    place: Place | None = None
    manner: Manner | None = None
    voiced: bool = False
    aspirated: bool = False
    # Vowel features (None for consonants)
    height: Height | None = None
    backness: Backness | None = None
    rounded: bool = False
    # Shared modifiers
    long: bool = False
    nasal: bool = field(default=False)

    def __post_init__(self) -> None:
        if self.klass is PhonemeClass.CONSONANT:
            if self.place is None or self.manner is None:
                raise PhonemeError(
                    f"consonant {self.symbol!r} must define place and manner"
                )
        else:
            if self.height is None or self.backness is None:
                raise PhonemeError(
                    f"vowel {self.symbol!r} must define height and backness"
                )

    @property
    def is_vowel(self) -> bool:
        return self.klass is PhonemeClass.VOWEL

    @property
    def is_consonant(self) -> bool:
        return self.klass is PhonemeClass.CONSONANT

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.symbol


def _c(
    symbol: str,
    place: Place,
    manner: Manner,
    *,
    voiced: bool = False,
    aspirated: bool = False,
    nasal: bool = False,
) -> Phoneme:
    return Phoneme(
        symbol=symbol,
        klass=PhonemeClass.CONSONANT,
        place=place,
        manner=manner,
        voiced=voiced,
        aspirated=aspirated,
        nasal=nasal,
    )


def _v(
    symbol: str,
    height: Height,
    backness: Backness,
    *,
    rounded: bool = False,
    long: bool = False,
) -> Phoneme:
    return Phoneme(
        symbol=symbol,
        klass=PhonemeClass.VOWEL,
        height=height,
        backness=backness,
        rounded=rounded,
        long=long,
    )


P = Place
M = Manner
H = Height
B = Backness

_BASE_PHONEMES: list[Phoneme] = [
    # --- Plosives -------------------------------------------------------
    _c("p", P.BILABIAL, M.PLOSIVE),
    _c("b", P.BILABIAL, M.PLOSIVE, voiced=True),
    _c("t", P.ALVEOLAR, M.PLOSIVE),
    _c("d", P.ALVEOLAR, M.PLOSIVE, voiced=True),
    _c("t̪", P.DENTAL, M.PLOSIVE),
    _c("d̪", P.DENTAL, M.PLOSIVE, voiced=True),
    _c("ʈ", P.RETROFLEX, M.PLOSIVE),
    _c("ɖ", P.RETROFLEX, M.PLOSIVE, voiced=True),
    _c("c", P.PALATAL, M.PLOSIVE),
    _c("ɟ", P.PALATAL, M.PLOSIVE, voiced=True),
    _c("k", P.VELAR, M.PLOSIVE),
    _c("g", P.VELAR, M.PLOSIVE, voiced=True),
    _c("q", P.UVULAR, M.PLOSIVE),
    _c("ʔ", P.GLOTTAL, M.PLOSIVE),
    # --- Nasals ---------------------------------------------------------
    _c("m", P.BILABIAL, M.NASAL, voiced=True, nasal=True),
    _c("n", P.ALVEOLAR, M.NASAL, voiced=True, nasal=True),
    _c("n̪", P.DENTAL, M.NASAL, voiced=True, nasal=True),
    _c("ɳ", P.RETROFLEX, M.NASAL, voiced=True, nasal=True),
    _c("ɲ", P.PALATAL, M.NASAL, voiced=True, nasal=True),
    _c("ŋ", P.VELAR, M.NASAL, voiced=True, nasal=True),
    # --- Trills, taps ---------------------------------------------------
    _c("r", P.ALVEOLAR, M.TRILL, voiced=True),
    _c("ɾ", P.ALVEOLAR, M.TAP, voiced=True),
    _c("ɽ", P.RETROFLEX, M.TAP, voiced=True),
    # --- Fricatives -----------------------------------------------------
    _c("ɸ", P.BILABIAL, M.FRICATIVE),
    _c("β", P.BILABIAL, M.FRICATIVE, voiced=True),
    _c("f", P.LABIODENTAL, M.FRICATIVE),
    _c("v", P.LABIODENTAL, M.FRICATIVE, voiced=True),
    _c("θ", P.DENTAL, M.FRICATIVE),
    _c("ð", P.DENTAL, M.FRICATIVE, voiced=True),
    _c("s", P.ALVEOLAR, M.FRICATIVE),
    _c("z", P.ALVEOLAR, M.FRICATIVE, voiced=True),
    _c("ʃ", P.POSTALVEOLAR, M.FRICATIVE),
    _c("ʒ", P.POSTALVEOLAR, M.FRICATIVE, voiced=True),
    _c("ʂ", P.RETROFLEX, M.FRICATIVE),
    _c("ʐ", P.RETROFLEX, M.FRICATIVE, voiced=True),
    _c("ç", P.PALATAL, M.FRICATIVE),
    _c("x", P.VELAR, M.FRICATIVE),
    _c("ɣ", P.VELAR, M.FRICATIVE, voiced=True),
    _c("h", P.GLOTTAL, M.FRICATIVE),
    _c("ɦ", P.GLOTTAL, M.FRICATIVE, voiced=True),
    # --- Affricates (single phonemes, multi-character symbols) ----------
    _c("ts", P.ALVEOLAR, M.AFFRICATE),
    _c("dz", P.ALVEOLAR, M.AFFRICATE, voiced=True),
    _c("tʃ", P.POSTALVEOLAR, M.AFFRICATE),
    _c("dʒ", P.POSTALVEOLAR, M.AFFRICATE, voiced=True),
    # --- Approximants and laterals --------------------------------------
    _c("ʋ", P.LABIODENTAL, M.APPROXIMANT, voiced=True),
    _c("ɹ", P.ALVEOLAR, M.APPROXIMANT, voiced=True),
    _c("ɻ", P.RETROFLEX, M.APPROXIMANT, voiced=True),
    _c("j", P.PALATAL, M.APPROXIMANT, voiced=True),
    _c("w", P.VELAR, M.APPROXIMANT, voiced=True),
    _c("l", P.ALVEOLAR, M.LATERAL, voiced=True),
    _c("ɭ", P.RETROFLEX, M.LATERAL, voiced=True),
    _c("ɫ", P.VELAR, M.LATERAL, voiced=True),
    _c("ʎ", P.PALATAL, M.LATERAL, voiced=True),
    # --- Vowels ----------------------------------------------------------
    _v("i", H.CLOSE, B.FRONT),
    _v("ɪ", H.NEAR_CLOSE, B.FRONT),
    _v("y", H.CLOSE, B.FRONT, rounded=True),
    _v("e", H.CLOSE_MID, B.FRONT),
    _v("ø", H.CLOSE_MID, B.FRONT, rounded=True),
    _v("ɛ", H.OPEN_MID, B.FRONT),
    _v("œ", H.OPEN_MID, B.FRONT, rounded=True),
    _v("æ", H.NEAR_OPEN, B.FRONT),
    _v("a", H.OPEN, B.FRONT),
    _v("ə", H.MID, B.CENTRAL),
    _v("ɜ", H.OPEN_MID, B.CENTRAL),
    _v("ɐ", H.NEAR_OPEN, B.CENTRAL),
    _v("ʌ", H.OPEN_MID, B.BACK),
    _v("ɑ", H.OPEN, B.BACK),
    _v("ɒ", H.OPEN, B.BACK, rounded=True),
    _v("ɔ", H.OPEN_MID, B.BACK, rounded=True),
    _v("o", H.CLOSE_MID, B.BACK, rounded=True),
    _v("ʊ", H.NEAR_CLOSE, B.BACK, rounded=True),
    _v("u", H.CLOSE, B.BACK, rounded=True),
    _v("ɯ", H.CLOSE, B.BACK),
]

# Consonants that take the Indic aspiration/breathy-voice contrast.  The
# aspirated variants get their own inventory entries: ``kʰ``, ``bʱ``, ...
_ASPIRATABLE = [
    "p", "b", "t", "d", "t̪", "d̪", "ʈ", "ɖ", "k", "g", "tʃ", "dʒ", "ɽ",
]

#: Suffix used for voiceless aspiration.
ASPIRATION_MARK = "ʰ"
#: Suffix used for voiced (breathy) aspiration.
BREATHY_MARK = "ʱ"
#: Vowel length mark.
LENGTH_MARK = "ː"
#: Combining tilde marking a nasalized vowel.
NASAL_MARK = "̃"


def _build_inventory() -> dict[str, Phoneme]:
    inv: dict[str, Phoneme] = {}
    for ph in _BASE_PHONEMES:
        if ph.symbol in inv:
            raise PhonemeError(f"duplicate phoneme symbol {ph.symbol!r}")
        inv[ph.symbol] = ph
    for sym in _ASPIRATABLE:
        base = inv[sym]
        mark = BREATHY_MARK if base.voiced else ASPIRATION_MARK
        aspirated = replace(base, symbol=sym + mark, aspirated=True)
        inv[aspirated.symbol] = aspirated
    # Long vowels: every short vowel has a long counterpart (symbol + ː).
    for ph in list(inv.values()):
        if ph.is_vowel:
            long_ph = replace(ph, symbol=ph.symbol + LENGTH_MARK, long=True)
            inv[long_ph.symbol] = long_ph
    # Nasalized vowels: every vowel (short or long) has a nasal variant.
    for ph in list(inv.values()):
        if ph.is_vowel:
            nasal_ph = replace(ph, symbol=ph.symbol + NASAL_MARK, nasal=True)
            inv[nasal_ph.symbol] = nasal_ph
    return inv


#: Symbol -> Phoneme for every phoneme the library knows about.
INVENTORY: dict[str, Phoneme] = _build_inventory()

#: The one phoneme code space: symbol -> code in sorted-symbol order.
#: The verifier's stored code columns, its cost tables and the parallel
#: executor's table all index by it; every code fits in a byte.
SYMBOL_CODES: dict[str, int] = {
    symbol: code for code, symbol in enumerate(sorted(INVENTORY))
}
assert len(SYMBOL_CODES) <= 256

#: All inventory symbols, longest first (the parser matches greedily).
SYMBOLS_BY_LENGTH: tuple[str, ...] = tuple(
    sorted(INVENTORY, key=lambda s: (-len(s), s))
)


def get_phoneme(symbol: str) -> Phoneme:
    """Return the :class:`Phoneme` for ``symbol``.

    Accepts NFC-precomposed spellings of nasal vowels (``ã``) as well as
    the canonical decomposed form.  Raises
    :class:`~repro.errors.PhonemeError` for unknown symbols.
    """
    try:
        return INVENTORY[symbol]
    except KeyError:
        pass
    import unicodedata

    decomposed = unicodedata.normalize("NFD", symbol)
    try:
        return INVENTORY[decomposed]
    except KeyError:
        raise PhonemeError(f"unknown phoneme symbol {symbol!r}") from None


def is_known_symbol(symbol: str) -> bool:
    """True if ``symbol`` is a phoneme in the inventory."""
    return symbol in INVENTORY


def base_symbol(symbol: str) -> str:
    """Strip length/nasal/aspiration modifiers off an inventory symbol.

    ``base_symbol("aː̃") == "a"``; ``base_symbol("kʰ") == "k"``.  The input
    must itself be an inventory symbol.
    """
    import unicodedata

    ph = get_phoneme(symbol)
    stripped = unicodedata.normalize("NFD", symbol)
    for mark in (NASAL_MARK, LENGTH_MARK, ASPIRATION_MARK, BREATHY_MARK):
        stripped = stripped.replace(mark, "")
    if not is_known_symbol(stripped):
        raise PhonemeError(
            f"no base symbol for {symbol!r} (stripped form {stripped!r})"
        )
    del ph
    return stripped
