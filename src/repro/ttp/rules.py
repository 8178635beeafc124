"""A context-sensitive grapheme-to-phoneme rule engine.

The engine implements the rule formalism of the classic NRL letter-to-sound
system (Elovitz et al., *Automatic Translation of English Text to
Phonetics*, 1976), which the English converter instantiates with a full
rule set and the French/Spanish converters reuse with smaller ones.

A rule is ``(left, fragment, right, phonemes)``: when ``fragment`` occurs
at the cursor with ``left`` matching the text before it and ``right`` the
text after it, emit ``phonemes`` and advance past the fragment.  Rules are
tried in order; the per-letter fallback rule at the end of each group makes
the system total.

Context pattern language (matched against normalized lowercase text):

=========  ==========================================================
symbol     matches
=========  ==========================================================
``#``      one or more vowels (``aeiouy``)
``:``      zero or more consonants
``^``      exactly one consonant
``.``      one voiced consonant (``bdvgjlmnrwz``)
``+``      one front vowel (``eiy``)
``%``      one of the suffixes ``er e es ed ing ely`` (right only)
``&``      a sibilant (``s c g z x j`` or digraph ``ch sh``)
``@``      a coronal-ish consonant (``t s r d l z n j`` or digraph
           ``th ch sh``)
(space)    a word boundary
letter     itself
=========  ==========================================================

:func:`compile_rules` translates every context into a :mod:`re` pattern
once.  A right context matches forward from the fragment's end; a left
context is written left-to-right but read right-to-left from the
fragment's start, so it compiles reversed and matches forward on the
reversed word.  Each first-letter group is indexed by fragment: at a
position only the rules whose fragment occurs there are tried, in table
order, and the first whose contexts match wins.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from repro.errors import TTPError
from repro.phonetics.parse import PhonemeString, parse_ipa

_VOWELS = "aeiouy"
_CONSONANTS = "bcdfghjklmnpqrstvwxz"

#: Context symbol -> regex, for a right context (read forward).
_RIGHT_SYMBOLS = {
    " ": r"\Z",
    "#": f"[{_VOWELS}]+",
    ":": f"[{_CONSONANTS}]*",
    "^": f"[{_CONSONANTS}]",
    ".": "[bdvgjlmnrwz]",
    "+": "[eiy]",
    "%": "(?:er|e|es|ed|ing|ely)",
    "&": "(?:ch|sh|[scgzxj])",
    "@": "(?:th|ch|sh|[tsrdlznj])",
}

#: The same for a left context, read backward on the reversed word:
#: digraphs are spelled reversed, and ``%`` is a literal.
_LEFT_SYMBOLS = {
    **{sym: rx for sym, rx in _RIGHT_SYMBOLS.items() if sym != "%"},
    "&": "(?:hc|hs|[scgzxj])",
    "@": "(?:ht|hc|hs|[tsrdlznj])",
}


class Rule(NamedTuple):
    """One grapheme-to-phoneme rewrite rule."""

    left: str
    fragment: str
    right: str
    phonemes: PhonemeString


#: First letter -> (fragment widths, longest first; fragment -> the
#: ``(width, left, right, phonemes)`` rules that can fire where it occurs).
RuleIndex = dict[str, tuple[tuple[int, ...], dict[str, tuple]]]


def _context(pattern: str, symbols: dict[str, str]):
    """``pattern``'s compiled ``match`` method (None when empty)."""
    if not pattern:
        return None
    return re.compile(
        "".join(symbols.get(ch) or re.escape(ch) for ch in pattern)
    ).match


def compile_rules(
    table: list[tuple[str, str, str, str]]
) -> RuleIndex:
    """Compile ``(left, fragment, right, ipa)`` rows into a rule index.

    The IPA output field is parsed once here, so a typo in a rule fails at
    import time rather than at match time.  The index maps a fragment's
    first letter to its group: the group's fragment lengths, longest
    first, and, per fragment, the rules of the group whose fragment is a
    prefix of it, in table order, as ``(width, left, right, phonemes)``
    with compiled contexts.  The longest fragment occurring at a position
    thus names every rule that can fire there.
    """
    groups: dict[str, list[Rule]] = {}
    for left, fragment, right, ipa in table:
        if not fragment:
            raise TTPError("rule with empty fragment")
        groups.setdefault(fragment[0], []).append(
            Rule(left, fragment, right, parse_ipa(ipa))
        )
    index = {}
    for letter, rules in groups.items():
        compiled = [
            (
                rule.fragment,
                (
                    len(rule.fragment),
                    _context(rule.left[::-1], _LEFT_SYMBOLS),
                    _context(rule.right, _RIGHT_SYMBOLS),
                    rule.phonemes,
                ),
            )
            for rule in rules
        ]
        fragments = {fragment for fragment, _ in compiled}
        index[letter] = (
            tuple(sorted({len(f) for f in fragments}, reverse=True)),
            {
                longest: tuple(
                    entry
                    for fragment, entry in compiled
                    if longest.startswith(fragment)
                )
                for longest in fragments
            },
        )
    return index


def apply_rules(
    word: str,
    index: RuleIndex,
    language: str,
) -> PhonemeString:
    """Transcribe ``word`` with the compiled rule index.

    Every position must be consumed by some rule; the per-letter fallback
    rules of a complete table guarantee this for alphabetic input.  A
    character with no rule group raises :class:`~repro.errors.TTPError`.
    """
    phonemes: list[str] = []
    reverse = word[::-1]
    pos = 0
    n = len(word)
    while pos < n:
        ch = word[pos]
        group = index.get(ch)
        if group is None:
            raise TTPError(
                f"{language} converter: no rule for character {ch!r} "
                f"in word {word!r}"
            )
        widths, by_fragment = group
        for width in widths:
            # A slice cut short by the word's end can only hit a
            # fragment that does occur here; no longer one can.
            rules = by_fragment.get(word[pos : pos + width])
            if rules is not None:
                break
        else:
            rules = ()
        for size, left, right, output in rules:
            if left is not None and left(reverse, n - pos) is None:
                continue
            end = pos + size
            if right is not None and right(word, end) is None:
                continue
            phonemes.extend(output)
            pos = end
            break
        else:
            raise TTPError(
                f"{language} converter: no rule matched at {pos} in {word!r}"
            )
    return tuple(phonemes)
