"""Tests for the TTP registry, language detection and folding behavior."""

import pytest

from repro.errors import TTPError, UnsupportedLanguageError
from repro.ttp.base import TTPConverter
from repro.ttp.registry import (
    TTPRegistry,
    default_registry,
    detect_language,
    supported_languages,
    transform,
)


class TestRegistry:
    def test_default_registry_supports_six_languages(self):
        langs = supported_languages()
        for lang in ["english", "hindi", "tamil", "greek", "spanish", "french"]:
            assert lang in langs

    def test_unsupported_language_raises(self):
        registry = TTPRegistry()
        with pytest.raises(UnsupportedLanguageError):
            registry.converter_for("klingon")

    def test_unregister(self):
        from repro.ttp.english import EnglishConverter

        registry = TTPRegistry([EnglishConverter()])
        assert registry.supports("english")
        registry.unregister("english")
        assert not registry.supports("english")

    def test_case_insensitive_lookup(self):
        assert default_registry().supports("English")
        assert default_registry().supports("ENGLISH")

    def test_transform_caches(self):
        registry = TTPRegistry(fold=False)

        calls = []

        class Fake(TTPConverter):
            language = "fake"
            script = "latin"

            def _word_to_phonemes(self, word):
                calls.append(word)
                return ("n", "a")

        registry.register(Fake())
        registry.transform("na", "fake")
        registry.transform("na", "fake")
        assert len(calls) == 1
        registry.clear_cache()
        registry.transform("na", "fake")
        assert len(calls) == 2

    def test_converter_without_language_rejected(self):
        class Bad(TTPConverter):
            language = ""

            def _word_to_phonemes(self, word):
                return ()

        with pytest.raises(TTPError):
            TTPRegistry([Bad()])


class TestFolding:
    def test_registry_folds_by_default(self):
        phonemes = transform("नेहरु", "hindi")
        assert "ɦ" not in phonemes  # folded to h
        assert "ʊ" not in phonemes  # folded to u

    def test_unfolded_registry_keeps_raw(self):
        from repro.ttp.base import builtin_converters

        raw = TTPRegistry(builtin_converters(), fold=False)
        phonemes = raw.transform("नेहरु", "hindi")
        assert "ɦ" in phonemes

    def test_folded_output_has_same_length(self):
        raw = default_registry().converter_for("hindi").to_phonemes("भारत")
        folded = transform("भारत", "hindi")
        assert len(raw) == len(folded)

    @pytest.mark.parametrize("fold", [True, False])
    def test_non_inventory_symbol_raises_the_same_error(self, fold):
        from repro.errors import PhonemeError

        class Fake(TTPConverter):
            language = "fake"
            script = "latin"

            def _word_to_phonemes(self, word):
                return ("n", "zz") if word == "bad" else ("n", "ɪ")

        registry = TTPRegistry([Fake()], fold=fold)
        with pytest.raises(PhonemeError) as raised:
            registry.transform("bad", "fake")
        assert str(raised.value) == "unknown phoneme symbol 'zz'"
        assert registry.transform("ok", "fake") == (
            ("n", "i") if fold else ("n", "ɪ")
        )

    def test_folding_checks_each_symbol_once(self, monkeypatch):
        """With folding on, the fold-table lookup is the symbol check:
        a valid string is not also run through the separate validator."""
        import repro.ttp.base

        def unexpected(phonemes):
            raise AssertionError("symbols checked twice")

        monkeypatch.setattr(
            repro.ttp.base, "validate_phoneme_string", unexpected
        )
        registry = TTPRegistry(
            [default_registry().converter_for("hindi")], fold=True
        )
        assert registry.transform("नेहरु", "hindi") == transform(
            "नेहरु", "hindi"
        )


class TestDetectLanguage:
    def test_devanagari(self):
        assert detect_language("नेहरु") == "hindi"

    def test_tamil(self):
        assert detect_language("நேரு") == "tamil"

    def test_greek(self):
        assert detect_language("Νερου") == "greek"

    def test_latin_defaults_to_english(self):
        assert detect_language("Nehru") == "english"

    def test_latin_default_overridable(self):
        assert detect_language("Nehru", latin_default="french") == "french"

    def test_leading_space_skipped(self):
        assert detect_language("  नेहरु") == "hindi"

    def test_undetectable_raises(self):
        with pytest.raises(TTPError):
            detect_language("!!!")
