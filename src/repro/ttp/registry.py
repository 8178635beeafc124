"""Language registry and script detection.

The registry is the "Languages with IPA transformations, S_L (as global
resource)" of paper Figure 8: LexEQUAL consults it to decide whether both
operands can be transformed, returning ``NORESOURCE`` otherwise.

Script detection (:func:`detect_language`) implements the pragmatic rule
the paper discusses in Section 2.1: many languages are identifiable from
their Unicode blocks (Devanagari → Hindi, Tamil → Tamil, Greek → Greek),
while Latin-script text is ambiguous and defaults to English unless the
caller tags it otherwise.
"""

from __future__ import annotations

import unicodedata
from collections.abc import Iterable

from repro import faults, obs
from repro.errors import TTPError, UnsupportedLanguageError
from repro.locks import make_lock
from repro.phonetics.parse import PhonemeString
from repro.ttp.base import TTPConverter, builtin_converters


class TTPRegistry:
    """A mutable language → converter registry with a conversion cache.

    The cache matters: quality sweeps transform the same lexicon strings
    for every parameter setting, and the database strategies transform
    every stored name once at load time.

    Thread-safety: the registry is shared by all of a query server's
    worker threads, so cache and converter mutations take a lock.  The
    *hit* path stays lock-free — a single ``dict.get`` on a dict that
    only ever grows is atomic under the GIL — and a miss converts
    outside the lock (conversions run in parallel; a racing duplicate
    conversion just loses the publish and adopts the winner's value, so
    callers always see one canonical ``PhonemeString`` per key).
    """

    def __init__(
        self, converters: Iterable[TTPConverter] = (), *, fold: bool = True
    ):
        self._converters: dict[str, TTPConverter] = {}
        self._cache: dict[tuple[str, str], PhonemeString] = {}
        self._lock = make_lock("ttp.registry")
        #: Whether transforms are folded onto the canonical matching
        #: alphabet (paper Section 4.1 preprocessing).  Raw converter
        #: output is always available via ``converter_for(...).to_phonemes``.
        self.fold = fold
        for conv in converters:
            self.register(conv)

    def register(self, converter: TTPConverter) -> None:
        """Add or replace the converter for its language."""
        if not converter.language:
            raise TTPError("converter has no language identifier")
        with self._lock:
            self._converters[converter.language.lower()] = converter

    def unregister(self, language: str) -> None:
        """Remove a language (subsequent lookups raise/NORESOURCE)."""
        with self._lock:
            self._converters.pop(language.lower(), None)

    def supports(self, language: str) -> bool:
        """True if a converter is registered for ``language``."""
        return language.lower() in self._converters

    def converter_for(self, language: str) -> TTPConverter:
        """The converter for ``language``.

        Raises :class:`~repro.errors.UnsupportedLanguageError` when the
        language has no registered converter (the ``NORESOURCE`` case).
        """
        try:
            return self._converters[language.lower()]
        except KeyError:
            raise UnsupportedLanguageError(language) from None

    def transform(self, text: str, language: str) -> PhonemeString:
        """``transform(S, L)`` of paper Figure 8, with caching.

        Output is folded onto the canonical matching alphabet unless the
        registry was built with ``fold=False``.
        """
        key = (language.lower(), text)
        # Failpoint before the cache lookup so fault schedules keep
        # injecting per-language failures even for warmed strings (the
        # chaos harness relies on this for degraded-response coverage).
        faults.fire("ttp.transform", language=key[0])
        cached = self._cache.get(key)  # lock-free hit path
        if cached is None:
            obs.incr("ttp.cache.misses")
            try:
                converted = self.converter_for(language).to_phonemes(
                    text, fold=self.fold
                )
            except TTPError as exc:
                # Tag the failing language so degradation contexts can
                # report *which* script dropped out of a match.
                if getattr(exc, "language", None) is None:
                    exc.language = key[0]
                raise
            with self._lock:
                cached = self._cache.setdefault(key, converted)
        else:
            obs.incr("ttp.cache.hits")
        return cached

    def languages(self) -> tuple[str, ...]:
        """Registered language identifiers, sorted."""
        return tuple(sorted(self._converters))

    def clear_cache(self) -> None:
        """Drop the conversion cache (for memory-sensitive callers).

        Concurrent readers keep whatever entry they already fetched; the
        swap installs a fresh dict so in-progress lock-free ``get`` calls
        never see a half-cleared mapping.
        """
        with self._lock:
            self._cache = {}


_DEFAULT: TTPRegistry | None = None
_DEFAULT_LOCK = make_lock("ttp.default")


def default_registry() -> TTPRegistry:
    """Shared registry pre-loaded with all built-in converters."""
    global _DEFAULT
    if _DEFAULT is None:
        with _DEFAULT_LOCK:  # double-checked: one shared instance
            if _DEFAULT is None:
                _DEFAULT = TTPRegistry(builtin_converters())
    return _DEFAULT


def converter_for(language: str) -> TTPConverter:
    """Converter lookup against the default registry."""
    return default_registry().converter_for(language)


def transform(text: str, language: str) -> PhonemeString:
    """One-shot transform against the default registry."""
    return default_registry().transform(text, language)


def supported_languages() -> tuple[str, ...]:
    """Languages supported by the default registry."""
    return default_registry().languages()


# Unicode block name prefix -> language identifier.
_BLOCK_LANGUAGES = (
    ("DEVANAGARI", "hindi"),
    ("TAMIL", "tamil"),
    ("KANNADA", "kannada"),
    ("GREEK", "greek"),
    ("ARABIC", "arabic"),
)


def detect_language(text: str, latin_default: str = "english") -> str:
    """Guess the language of ``text`` from its Unicode script.

    Indic and Greek scripts identify their language uniquely among the
    supported set; Latin script falls back to ``latin_default``.  Raises
    :class:`~repro.errors.TTPError` for text whose script is not
    recognized at all (e.g. unsupported scripts or pure punctuation).
    """
    for ch in text:
        if ch.isspace():
            continue
        try:
            name = unicodedata.name(ch)
        except ValueError:
            continue
        for prefix, language in _BLOCK_LANGUAGES:
            if name.startswith(prefix):
                return language
        if name.startswith("LATIN"):
            return latin_default
    raise TTPError(f"cannot detect script of {text!r}")
