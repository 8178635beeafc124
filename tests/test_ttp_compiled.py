"""The TTP layer's precompiled tables produce exactly the original output.

* The NRL rule engine's compiled contexts (:mod:`repro.ttp.rules`) are
  diffed against the recursive context matcher they replaced, kept here
  as the oracle, on random Latin strings and the lexicon's words.
* Every built-in converter's output over a fixed corpus (the four-script
  lexicon, a generated-dataset sample, and seeded random strings in
  every script) hashes to a golden digest recorded before the tables
  were precompiled.
* The precomputed fold table equals :func:`fold_symbol` symbol by symbol.
"""

from __future__ import annotations

import hashlib
import random

import pytest

from repro.data.lexicon import default_lexicon
from repro.errors import PhonemeError, TTPError
from repro.phonetics.folding import _FOLDS, fold_phonemes, fold_symbol
from repro.phonetics.inventory import INVENTORY
from repro.phonetics.parse import parse_ipa
from repro.ttp import english, french, spanish
from repro.ttp.base import builtin_converters
from repro.ttp.registry import TTPRegistry
from repro.ttp.rules import apply_rules, compile_rules

# ------------------------------------------------------------ oracle

_VOWELS = frozenset("aeiouy")
_CONSONANTS = frozenset("bcdfghjklmnpqrstvwxz")
_VOICED = frozenset("bdvgjlmnrwz")
_FRONT = frozenset("eiy")
_SIBILANT_LETTERS = frozenset("scgzxj")
_AT_LETTERS = frozenset("tsrdlznj")
_SUFFIXES = ("er", "e", "es", "ed", "ing", "ely")


def _match_right(text: str, pos: int, pattern: str) -> bool:
    """Match ``pattern`` against ``text[pos:]`` (left-to-right)."""
    if not pattern:
        return True
    ch = pattern[0]
    rest = pattern[1:]
    n = len(text)
    if ch == " ":
        return pos >= n and _match_right(text, pos, rest)
    if ch == "#":
        count = 0
        while pos + count < n and text[pos + count] in _VOWELS:
            count += 1
        # one-or-more vowels, longest first with backtracking
        for used in range(count, 0, -1):
            if _match_right(text, pos + used, rest):
                return True
        return False
    if ch == ":":
        count = 0
        while pos + count < n and text[pos + count] in _CONSONANTS:
            count += 1
        for used in range(count, -1, -1):
            if _match_right(text, pos + used, rest):
                return True
        return False
    if ch == "^":
        return (
            pos < n
            and text[pos] in _CONSONANTS
            and _match_right(text, pos + 1, rest)
        )
    if ch == ".":
        return (
            pos < n
            and text[pos] in _VOICED
            and _match_right(text, pos + 1, rest)
        )
    if ch == "+":
        return (
            pos < n
            and text[pos] in _FRONT
            and _match_right(text, pos + 1, rest)
        )
    if ch == "%":
        for suffix in _SUFFIXES:
            if text.startswith(suffix, pos) and _match_right(
                text, pos + len(suffix), rest
            ):
                return True
        return False
    if ch == "&":
        if pos + 1 < n and text[pos : pos + 2] in ("ch", "sh"):
            if _match_right(text, pos + 2, rest):
                return True
        return (
            pos < n
            and text[pos] in _SIBILANT_LETTERS
            and _match_right(text, pos + 1, rest)
        )
    if ch == "@":
        if pos + 1 < n and text[pos : pos + 2] in ("th", "ch", "sh"):
            if _match_right(text, pos + 2, rest):
                return True
        return (
            pos < n
            and text[pos] in _AT_LETTERS
            and _match_right(text, pos + 1, rest)
        )
    # literal letter
    return pos < n and text[pos] == ch and _match_right(text, pos + 1, rest)


def _match_left(text: str, end: int, pattern: str) -> bool:
    """Match ``pattern`` against ``text[:end]``, anchored at ``end``.

    The pattern is written left-to-right but consumed right-to-left, so
    ``"#:"`` means "vowels, then any consonants, immediately before the
    fragment".
    """
    if not pattern:
        return True
    ch = pattern[-1]
    rest = pattern[:-1]
    if ch == " ":
        return end <= 0 and _match_left(text, end, rest)
    if ch == "#":
        count = 0
        while end - count - 1 >= 0 and text[end - count - 1] in _VOWELS:
            count += 1
        for used in range(count, 0, -1):
            if _match_left(text, end - used, rest):
                return True
        return False
    if ch == ":":
        count = 0
        while end - count - 1 >= 0 and text[end - count - 1] in _CONSONANTS:
            count += 1
        for used in range(count, -1, -1):
            if _match_left(text, end - used, rest):
                return True
        return False
    if ch == "^":
        return (
            end > 0
            and text[end - 1] in _CONSONANTS
            and _match_left(text, end - 1, rest)
        )
    if ch == ".":
        return (
            end > 0
            and text[end - 1] in _VOICED
            and _match_left(text, end - 1, rest)
        )
    if ch == "+":
        return (
            end > 0
            and text[end - 1] in _FRONT
            and _match_left(text, end - 1, rest)
        )
    if ch == "&":
        if end >= 2 and text[end - 2 : end] in ("ch", "sh"):
            if _match_left(text, end - 2, rest):
                return True
        return (
            end > 0
            and text[end - 1] in _SIBILANT_LETTERS
            and _match_left(text, end - 1, rest)
        )
    if ch == "@":
        if end >= 2 and text[end - 2 : end] in ("th", "ch", "sh"):
            if _match_left(text, end - 2, rest):
                return True
        return (
            end > 0
            and text[end - 1] in _AT_LETTERS
            and _match_left(text, end - 1, rest)
        )
    return end > 0 and text[end - 1] == ch and _match_left(text, end - 1, rest)


def oracle_apply(word: str, rows, language: str):
    """The rule engine by direct recursion over the table rows."""
    groups: dict[str, list] = {}
    for left, fragment, right, ipa in rows:
        groups.setdefault(fragment[0], []).append((left, fragment, right, ipa))
    phonemes: list[str] = []
    pos = 0
    while pos < len(word):
        group = groups.get(word[pos])
        if group is None:
            raise TTPError(
                f"{language} converter: no rule for character "
                f"{word[pos]!r} in word {word!r}"
            )
        for left, fragment, right, ipa in group:
            end = pos + len(fragment)
            if (
                word.startswith(fragment, pos)
                and _match_left(word, pos, left)
                and _match_right(word, end, right)
            ):
                phonemes.extend(parse_ipa(ipa))
                pos = end
                break
        else:
            raise TTPError(
                f"{language} converter: no rule matched at {pos} in {word!r}"
            )
    return tuple(phonemes)


def _outcome(convert, text: str) -> str:
    try:
        return "ok " + " ".join(convert(text))
    except (TTPError, PhonemeError) as exc:
        return f"{type(exc).__name__} {exc}"


#: language -> (module holding the compiled index, its table rows).
RULE_TABLES = {
    "english": (english, english._RULES),
    "french": (french, french._ACCENT_RULES + french._RULES),
    "spanish": (spanish, spanish._RULES),
}


def _random_latin(rng: random.Random, count: int, extra: str = ""):
    # Weighted towards vowels and the context classes' letters so the
    # long contexts (``#:``, ``^%``, ``&``/``@`` digraphs) get exercised.
    letters = "abcdefghijklmnopqrstuvwxyz" + "aeiouy" * 2 + "chst" + extra
    return [
        "".join(rng.choice(letters) for _ in range(rng.randint(1, 11)))
        for _ in range(count)
    ]


class TestRuleEngineOracle:
    @pytest.mark.parametrize("language", sorted(RULE_TABLES))
    def test_random_latin_strings(self, language):
        module, rows = RULE_TABLES[language]
        rng = random.Random(f"rules-{language}")
        # French normalization leaves ``_`` after substituted accents.
        words = _random_latin(rng, 6000, "_" if language == "french" else "")
        for word in words:
            assert _outcome(
                lambda w: apply_rules(w, module._INDEX, language), word
            ) == _outcome(
                lambda w: oracle_apply(w, rows, language), word
            ), word

    @pytest.mark.parametrize("language", sorted(RULE_TABLES))
    def test_lexicon_words(self, language):
        module, rows = RULE_TABLES[language]
        words = sorted(
            {
                word
                for entry in default_lexicon().by_language("english")
                for word in entry.name.lower().split()
                if word.isalpha() and word.isascii()
            }
        )
        assert words
        for word in words:
            assert apply_rules(word, module._INDEX, language) == oracle_apply(
                word, rows, language
            ), word

    def test_reversed_digraph_contexts(self):
        rows = [
            ("&", "o", "", "a"),
            ("@", "u", "&", "i"),
            ("", "o", "", "o"),
            ("", "u", "", "u"),
            ("", "c", "", "k"),
            ("", "h", "", "h"),
            ("", "s", "", "s"),
            ("", "t", "", "t"),
        ]
        index = compile_rules(rows)
        for word in ("cho", "sho", "tho", "ho", "thuch", "chush", "tus", "hu"):
            assert apply_rules(word, index, "t") == oracle_apply(
                word, rows, "t"
            ), word


# ------------------------------------------------------------ folding


class TestFoldTable:
    def test_table_equals_fold_symbol(self):
        assert set(_FOLDS) == set(INVENTORY)
        for symbol in INVENTORY:
            assert _FOLDS[symbol] == fold_symbol(symbol), symbol
            assert fold_phonemes((symbol,)) == (fold_symbol(symbol),)

    def test_non_inventory_symbol_raises(self):
        with pytest.raises(PhonemeError):
            fold_phonemes(("a", "zz"))

    def test_precomposed_spelling_folds_like_fold_symbol(self):
        assert fold_phonemes(("ã",)) == (fold_symbol("ã"),)


# ------------------------------------------------------------ golden


#: Seeded random-string alphabets, one per converter's script.
ALPHABETS = {
    "english": "abcdefghijklmnopqrstuvwxyz'-",
    "french": "abcdefghijklmnopqrstuvwxyzéèêëçàâîôùû",
    "spanish": "abcdefghijklmnopqrstuvwxyzñáéíóú",
    "greek": "αβγδεζηθικλμνξοπρστυφχψωςάέήίόύώϊϋΑΕΝ",
    "arabic": "".join(map(chr, range(0x0621, 0x0653))),
    "hindi": "".join(map(chr, range(0x0901, 0x0951))),
    "tamil": "".join(map(chr, range(0x0B82, 0x0BCE))),
    "kannada": "".join(map(chr, range(0x0C82, 0x0CCE))),
}

#: sha256 of :func:`_corpus_lines`, recorded with the converters that
#: parsed their tables on every character.
GOLDEN_DIGEST = (
    "fa52a10ab179591c62292021e9e7583b85d294e76725fae1a2fee8c301f7a193"
)


def _corpus_lines():
    """``language<TAB>text<TAB>raw<TAB>folded`` for every converter over
    the lexicon, a generated-dataset sample and random strings."""
    from repro.data.generator import generate_performance_dataset
    from repro.data.lexicon import build_lexicon

    lexicon = build_lexicon(
        languages=("english", "hindi", "tamil", "kannada")
    )
    texts: dict[str, list[str]] = {lang: [] for lang in ALPHABETS}
    rows = [(e.name, e.language) for e in lexicon] + [
        (g.name, g.language)
        for g in generate_performance_dataset(lexicon, 2000)
    ]
    for name, language in rows:
        targets = (
            ("english", "french", "spanish")
            if language == "english"
            else (language,)
        )
        for target in targets:
            texts[target].append(name)
    rng = random.Random(20040314)
    for language, alphabet in ALPHABETS.items():
        for _ in range(400):
            texts[language].append(
                "".join(
                    rng.choice(alphabet) for _ in range(rng.randint(1, 9))
                )
            )
    registry = TTPRegistry(builtin_converters())
    for converter in builtin_converters():
        language = converter.language
        for text in texts[language]:
            raw = _outcome(converter.to_phonemes, text)
            folded = _outcome(
                lambda t: registry.transform(t, language), text
            )
            yield f"{language}\t{text}\t{raw}\t{folded}\n"


def corpus_digest() -> str:
    digest = hashlib.sha256()
    for line in _corpus_lines():
        digest.update(line.encode())
    return digest.hexdigest()


def test_converter_output_matches_golden_digest():
    assert corpus_digest() == GOLDEN_DIGEST
