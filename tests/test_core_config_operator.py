"""Tests for MatchConfig and the Figure 8 LexEQUAL operator."""

import pytest

from repro.core.config import MatchConfig
from repro.core.operator import MatchOutcome, lex_equal, operand_language
from repro.errors import MatchConfigError
from repro.matching.costs import ClusteredCost, LevenshteinCost
from repro.minidb.values import LangText


class TestMatchConfig:
    def test_defaults_in_paper_knee(self):
        config = MatchConfig()
        assert 0.25 <= config.threshold <= 0.35
        assert 0.25 <= config.intra_cluster_cost <= 0.5

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"threshold": -0.1},
            {"threshold": 1.5},
            {"intra_cluster_cost": 2.0},
            {"weak_indel_cost": 0.0},
            {"vowel_cross_cost": 0.0},
            {"q": 0},
            {"qgram_domain": "nope"},
            {"key_mode": "nope"},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(MatchConfigError):
            MatchConfig(**kwargs)

    def test_cost_model_selection(self):
        flat = MatchConfig(
            intra_cluster_cost=1.0,
            weak_indel_cost=1.0,
            vowel_cross_cost=1.0,
        )
        assert isinstance(flat.cost_model(), LevenshteinCost)
        assert isinstance(MatchConfig().cost_model(), ClusteredCost)

    def test_cost_model_shared_across_thresholds(self):
        """Per-query copies (``with_threshold``) reuse one cost model;
        a cost-relevant field or another clustering gets its own."""
        from repro.phonetics.clusters import PhonemeClustering

        config = MatchConfig()
        model = config.cost_model()
        assert config.with_threshold(0.5).cost_model() is model
        assert MatchConfig(threshold=0.1).cost_model() is model
        assert config.with_intra_cluster_cost(0.5).cost_model() is not model
        other = PhonemeClustering([["p", "b"]], name="pb")
        clustered = MatchConfig(clustering=other).cost_model()
        assert clustered is not model and clustered.clustering is other

    def test_with_methods(self):
        config = MatchConfig().with_threshold(0.4)
        assert config.threshold == 0.4
        config = config.with_intra_cluster_cost(0.75)
        assert config.intra_cluster_cost == 0.75
        assert config.threshold == 0.4  # preserved

    def test_budget(self):
        config = MatchConfig(threshold=0.25)
        assert config.budget(4, 8) == 1.0
        assert config.budget(8, 4) == 1.0

    def test_max_operations_classical(self):
        config = MatchConfig(
            threshold=0.25,
            intra_cluster_cost=1.0,
            weak_indel_cost=1.0,
            vowel_cross_cost=1.0,
        )
        assert config.max_operations(14) == 3  # floor(0.25 * 14)

    def test_max_operations_scaled_by_cheap_ops(self):
        config = MatchConfig(
            threshold=0.25, weak_indel_cost=0.5, vowel_cross_cost=0.5
        )
        assert config.max_operations(14) == 7

    def test_phoneme_domain_zero_cost_unsound(self):
        config = MatchConfig(
            intra_cluster_cost=0.0, qgram_domain="phoneme"
        )
        with pytest.raises(MatchConfigError):
            config.max_operations(10)


class TestLexEqualOperator:
    def test_figure_4_selection(self):
        assert lex_equal("Nehru", LangText("नेहरु", "hindi"), 0.25)
        assert lex_equal("Nehru", LangText("நேரு", "tamil"), 0.25)
        assert not lex_equal("Nehru", "Nero", 0.25)

    def test_outcome_is_enum(self):
        outcome = lex_equal("Nehru", "Nehru", 0.0)
        assert outcome is MatchOutcome.TRUE
        assert bool(outcome)
        assert not bool(MatchOutcome.FALSE)
        assert not bool(MatchOutcome.NORESOURCE)

    def test_zero_threshold_requires_identity(self):
        assert lex_equal("Nehru", "Nehru", 0.0)
        assert not lex_equal("Nehru", "Nehrus", 0.0)

    def test_noresource_for_unsupported_script(self):
        # Hebrew text: script not detected -> NORESOURCE
        outcome = lex_equal("Nehru", "נהרו", 0.5)
        assert outcome is MatchOutcome.NORESOURCE

    def test_noresource_for_unregistered_language(self):
        outcome = lex_equal("Nehru", LangText("xyz", "klingon"), 0.5)
        assert outcome is MatchOutcome.NORESOURCE

    def test_language_restriction(self):
        hindi = LangText("नेहरु", "hindi")
        assert lex_equal(
            "Nehru", hindi, 0.3, languages=("english", "hindi")
        )
        assert not lex_equal("Nehru", hindi, 0.3, languages=("english",))

    def test_wildcard_languages(self):
        assert lex_equal("Nehru", LangText("नेहरु", "hindi"), 0.3,
                         languages=())

    def test_symmetric(self):
        a, b = "Nehru", LangText("நேரு", "tamil")
        assert lex_equal(a, b, 0.3) == lex_equal(b, a, 0.3)

    def test_threshold_uses_config_default(self):
        config = MatchConfig(threshold=0.0)
        assert not lex_equal(
            "Nehru", LangText("नेहरु", "hindi"), config=config
        )

    def test_operand_language(self):
        assert operand_language("Nehru") == "english"
        assert operand_language(LangText("x", "Hindi")) == "hindi"
        assert operand_language("!!!") is None
