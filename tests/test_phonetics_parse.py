"""Tests for IPA string tokenization."""

from unittest import mock

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.errors import PhonemeError
from repro.phonetics import parse
from repro.phonetics.inventory import INVENTORY
from repro.phonetics.parse import (
    format_phonemes,
    ipa_length,
    parse_ipa,
    validate_phoneme_string,
)


class TestBasicParsing:
    def test_simple_word(self):
        assert parse_ipa("nehru") == ("n", "e", "h", "r", "u")

    def test_affricates_are_single_phonemes(self):
        assert parse_ipa("tʃa") == ("tʃ", "a")
        assert parse_ipa("dʒa") == ("dʒ", "a")
        assert parse_ipa("tsa") == ("ts", "a")

    def test_aspiration_attaches(self):
        assert parse_ipa("kʰa") == ("kʰ", "a")
        assert parse_ipa("bʱa") == ("bʱ", "a")

    def test_long_vowels_attach(self):
        assert parse_ipa("naː") == ("n", "aː")

    def test_nasal_vowels_attach(self):
        phonemes = parse_ipa("bɔ̃")
        assert len(phonemes) == 2
        assert phonemes[1].endswith("̃")

    def test_dental_diacritic_kept_with_stop(self):
        assert parse_ipa("t̪a") == ("t̪", "a")
        assert parse_ipa("d̪ʱa") == ("d̪ʱ", "a")

    def test_empty_string(self):
        assert parse_ipa("") == ()

    def test_length_counts_phonemes_not_codepoints(self):
        # dʒəʋaːɦərlaːl: 10 phonemes, more code points
        text = "dʒəʋaːɦərlaːl"
        assert ipa_length(text) == 10
        assert len(text) > 10


class TestSuprasegmentals:
    def test_stress_marks_removed(self):
        assert parse_ipa("ˈnehru") == parse_ipa("nehru")
        assert parse_ipa("ˌne.hru") == parse_ipa("nehru")

    def test_whitespace_ignored(self):
        assert parse_ipa("ne hru") == parse_ipa("nehru")

    def test_script_g_alias(self):
        assert parse_ipa("ɡa") == ("g", "a")


class TestErrors:
    def test_unknown_symbol_raises(self):
        with pytest.raises(PhonemeError):
            parse_ipa("n3hru")

    def test_leading_modifier_raises(self):
        with pytest.raises(PhonemeError):
            parse_ipa("ːa")

    def test_validate_rejects_bad_symbol(self):
        with pytest.raises(PhonemeError):
            validate_phoneme_string(("n", "XX"))

    def test_validate_accepts_good_string(self):
        validate_phoneme_string(parse_ipa("nɛhɹu"))


class TestRoundTrip:
    def test_format_inverts_parse(self):
        for text in ["nɛhɹu", "dʒəʋaːɦərlaːl", "kʰaːn", "t̪ʰaːkʊr"]:
            assert format_phonemes(parse_ipa(text)) == text

    def test_consonant_gemination_via_length_mark(self):
        # A length mark on a consonant doubles it (pattern used by some
        # transcriptions); the parser must not crash.
        assert parse_ipa("akːa") == ("a", "k", "k", "a")


def _parsed(text):
    try:
        return parse_ipa(text)
    except PhonemeError:
        return PhonemeError


#: Inventory characters, the modifiers, the ignored marks and one
#: character the parser does not know.
_ALPHABET = sorted(
    {ch for symbol in INVENTORY for ch in symbol}
    | set(parse._MODIFIERS)
    | parse._IGNORED
    | {"3"}
)


class TestLongestMatch:
    @settings(max_examples=300, deadline=None)
    @given(st.text(alphabet=_ALPHABET, max_size=16))
    def test_probe_equals_longest_first_scan(self, text):
        def scan(text, start):
            for symbol in sorted(INVENTORY, key=len, reverse=True):
                if text.startswith(symbol, start):
                    return symbol
            return None

        for start in range(len(text)):
            assert parse._longest_match(text, start) == scan(text, start)
        probed = _parsed(text)
        with mock.patch.object(parse, "_longest_match", scan):
            assert _parsed(text) == probed
