"""Tests for LexEqualMatcher."""

import pytest

from repro.core.config import MatchConfig
from repro.core.matcher import LexEqualMatcher
from repro.core.operator import MatchOutcome
from repro.errors import TTPError
from repro.minidb.values import LangText


class TestTransforms:
    def test_phonemes_for_tagged_text(self, matcher):
        phonemes = matcher.phonemes(LangText("नेहरु", "hindi"))
        assert phonemes == ("n", "e", "h", "r", "u")  # folded

    def test_phonemes_detects_script(self, matcher):
        assert matcher.phonemes("நேரு") == ("n", "e", "r", "u")

    def test_ipa_string(self, matcher):
        assert matcher.ipa("Nehru") == "nɛhru"

    def test_unknown_script_raises(self, matcher):
        with pytest.raises(TTPError):
            matcher.phonemes("!!!")

    def test_grouped_key_consistency(self, matcher):
        assert matcher.grouped_key_of("Nehru") == matcher.grouped_key_of(
            LangText("नेहरु", "hindi")
        )


class TestMatching:
    def test_match_outcomes(self, matcher):
        assert matcher.match("Nehru", LangText("नेहरु", "hindi")) is (
            MatchOutcome.TRUE
        )
        assert matcher.match("Smith", LangText("नेहरु", "hindi")) is (
            MatchOutcome.FALSE
        )
        assert matcher.match("Nehru", LangText("x", "klingon")) is (
            MatchOutcome.NORESOURCE
        )

    def test_matches_boolean(self, matcher):
        assert matcher.matches("Gandhi", LangText("गांधी", "hindi"))
        assert not matcher.matches("Gandhi", LangText("x", "klingon"))

    def test_phoneme_level_entry_points(self, matcher):
        left = matcher.phonemes("Nehru")
        right = matcher.phonemes(LangText("नेहरु", "hindi"))
        distance = matcher.phoneme_distance(left, right)
        assert distance <= matcher.config.budget(len(left), len(right))
        assert matcher.phonemes_match(left, right)

    def test_ipa_match(self, matcher):
        assert matcher.ipa_match("nɛhru", "nehru")
        assert not matcher.ipa_match("nɛhru", "smiθ")

    def test_stricter_threshold_matches_less(self):
        loose = LexEqualMatcher(MatchConfig(threshold=0.5))
        strict = LexEqualMatcher(MatchConfig(threshold=0.05))
        pair = ("Nehru", LangText("நேரு", "tamil"))
        assert loose.matches(*pair)
        assert not strict.matches(*pair)


class TestExplain:
    def test_explain_match(self, matcher):
        exp = matcher.explain("Nehru", LangText("नेहरु", "hindi"))
        assert exp.outcome is MatchOutcome.TRUE
        assert exp.left_language == "english"
        assert exp.right_language == "hindi"
        assert exp.distance is not None
        assert exp.distance <= exp.budget
        assert exp.left_ipa and exp.right_ipa

    def test_explain_noresource(self, matcher):
        exp = matcher.explain("Nehru", LangText("x", "klingon"))
        assert exp.outcome is MatchOutcome.NORESOURCE
        assert exp.distance is None

    def test_str_rendering(self, matcher):
        text = str(matcher.explain("Nehru", "Nero"))
        assert "Nehru" in text and "Nero" in text


class TestSearch:
    CANDIDATES = [
        "Nero",
        LangText("नेहरु", "hindi"),
        LangText("நேரு", "tamil"),
        "Smith",
        LangText("गांधी", "hindi"),
    ]

    def test_search_all_languages(self, matcher):
        results = matcher.search("Nehru", self.CANDIDATES)
        assert LangText("नेहरु", "hindi") in results
        assert LangText("நேரு", "tamil") in results
        assert "Smith" not in results

    def test_search_language_restriction(self, matcher):
        results = matcher.search(
            "Nehru", self.CANDIDATES, languages=("hindi",)
        )
        assert results == [LangText("नेहरु", "hindi")]

    def test_search_skips_unsupported(self, matcher):
        results = matcher.search(
            "Nehru", [LangText("x", "klingon"), LangText("नेहरु", "hindi")]
        )
        assert results == [LangText("नेहरु", "hindi")]

    def test_search_preserves_order(self, matcher):
        results = matcher.search("Nehru", self.CANDIDATES)
        indexes = [self.CANDIDATES.index(r) for r in results]
        assert indexes == sorted(indexes)
