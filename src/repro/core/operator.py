"""The LexEQUAL operator — a direct transcription of paper Figure 8.

``LexEQUAL(S_l, S_r, e)``:

1. determine the languages of both operands;
2. if either language has no IPA transformation, return ``NORESOURCE``;
3. transform both strings to phoneme strings;
4. return ``TRUE`` iff ``editdistance(T_l, T_r) <= e * min(|T_l|, |T_r|)``.

Operands are :class:`~repro.minidb.values.LangText` (explicit language
tag) or plain strings, whose language is detected from their Unicode
script (Latin defaults to English) — the pragmatic resolution of the
language-identification issue the paper discusses in Section 2.1.

The steps are implemented once, by
:meth:`~repro.core.matcher.LexEqualMatcher.match`; :func:`lex_equal` is
its one-shot form.  :func:`language_set` is the one reading of an
``INLANGUAGES`` set.
"""

from __future__ import annotations

import enum
from collections.abc import Iterable

from repro.core.config import MatchConfig
from repro.errors import TTPError, UnsupportedLanguageError
from repro.minidb.values import LangText
from repro.ttp.registry import TTPRegistry, detect_language


class MatchOutcome(enum.Enum):
    """Three-valued result of the LexEQUAL operator (Figure 8)."""

    TRUE = "true"
    FALSE = "false"
    NORESOURCE = "noresource"

    def __bool__(self) -> bool:
        return self is MatchOutcome.TRUE


def language_set(languages: str | Iterable[str] | None) -> frozenset[str]:
    """An ``INLANGUAGES`` set as lowercased language names.

    ``languages`` is an iterable of names or one comma-separated string
    (the form the SQL predicate passes its UDF); blank names are
    dropped.  The empty set is the ``*`` wildcard.
    """
    if not languages:
        return frozenset()
    if isinstance(languages, str):
        languages = languages.split(",")
    return frozenset(
        name.strip().lower() for name in languages if name.strip()
    )


def operand_language(value: str | LangText) -> str | None:
    """Language of an operand: its tag, or a script-based guess.

    Returns ``None`` when the script cannot be identified (which the
    operator reports as ``NORESOURCE``).
    """
    if isinstance(value, LangText):
        return value.language.lower()
    try:
        return detect_language(value)
    except TTPError:
        return None


def lex_equal(
    left: str | LangText,
    right: str | LangText,
    threshold: float | None = None,
    *,
    config: MatchConfig | None = None,
    registry: TTPRegistry | None = None,
    languages: Iterable[str] = (),
) -> MatchOutcome:
    """The LexEQUAL comparison of paper Figure 8.

    ``languages`` restricts the match to operands in the given languages
    (the query's ``INLANGUAGES`` clause); an empty set is the ``*``
    wildcard.  ``threshold`` overrides ``config.threshold`` when given.

    >>> from repro.minidb.values import LangText
    >>> bool(lex_equal("Nehru", LangText("नेहरु", "hindi"), 0.3))
    True
    """
    from repro.core.matcher import LexEqualMatcher

    try:
        return LexEqualMatcher(config, registry).match(
            left, right, threshold, languages
        )
    except UnsupportedLanguageError:
        return MatchOutcome.NORESOURCE
