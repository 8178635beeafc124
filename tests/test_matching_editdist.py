"""Tests for the dynamic-programming edit distance (paper Figure 8)."""

import pytest

from repro.matching.costs import ClusteredCost, LevenshteinCost
from repro.matching.editdist import edit_distance, edit_distance_within
from tests.oracle import distance_matrix


class TestClassicDistance:
    @pytest.mark.parametrize(
        "a,b,expected",
        [
            ("", "", 0.0),
            ("abc", "", 3.0),
            ("", "abc", 3.0),
            ("kitten", "sitting", 3.0),
            ("flaw", "lawn", 2.0),
            ("abc", "abc", 0.0),
            ("abc", "abd", 1.0),
            ("abc", "acb", 2.0),
        ],
    )
    def test_known_values(self, a, b, expected):
        assert edit_distance(a, b) == expected

    def test_symmetry(self):
        pairs = [("kitten", "sitting"), ("abc", "xyz"), ("a", "abcd")]
        for a, b in pairs:
            assert edit_distance(a, b) == edit_distance(b, a)

    def test_triangle_inequality(self):
        words = ["kitten", "sitting", "mitten", "bitten", ""]
        for a in words:
            for b in words:
                for c in words:
                    assert edit_distance(a, c) <= edit_distance(
                        a, b
                    ) + edit_distance(b, c)

    def test_distance_matrix_corner(self):
        matrix = distance_matrix("kitten", "sitting")
        assert matrix[6][7] == 3.0
        assert matrix[0][0] == 0.0
        assert matrix[3][0] == 3.0


class TestClusteredDistance:
    def test_intra_cluster_substitution_cheap(self):
        costs = ClusteredCost(0.25)
        assert edit_distance(("p", "a"), ("b", "a"), costs) == 0.25

    def test_weak_deletion_cheap(self):
        costs = ClusteredCost(0.25, weak_indel_cost=0.5)
        assert edit_distance(("n", "e", "h"), ("n", "e"), costs) == 0.5

    def test_mixed_operations(self):
        costs = ClusteredCost(0.25, weak_indel_cost=0.5, vowel_cross_cost=0.5)
        # p->b (0.25) plus delete h (0.5)
        assert edit_distance(("p", "h", "a"), ("b", "a"), costs) == 0.75

    def test_cheaper_path_found_over_greedy(self):
        # The DP must consider substitution vs indel tradeoffs.
        costs = ClusteredCost(0.0)
        assert edit_distance(("p",), ("b",), costs) == 0.0


class TestBandedDistance:
    def test_agrees_with_full_when_within(self):
        assert edit_distance_within("kitten", "sitting", 3.0) == 3.0

    def test_none_when_exceeding(self):
        assert edit_distance_within("kitten", "sitting", 2.9) is None

    def test_zero_budget_identical(self):
        assert edit_distance_within("abc", "abc", 0.0) == 0.0
        assert edit_distance_within("abc", "abd", 0.0) is None

    def test_negative_budget(self):
        assert edit_distance_within("a", "a", -1.0) is None

    def test_empty_strings(self):
        assert edit_distance_within("", "", 0.0) == 0.0
        assert edit_distance_within("", "ab", 2.0) == 2.0
        assert edit_distance_within("ab", "", 1.0) is None

    def test_length_filter_respects_weak_indels(self):
        # With weak vowels (cost 0.5), a length gap of 2 fits budget 1.0.
        costs = ClusteredCost(0.25, weak_indel_cost=0.5)
        got = edit_distance_within(
            ("n", "ə", "ə"), ("n",), 1.0, costs
        )
        assert got == 1.0

    @pytest.mark.parametrize("seed", range(5))
    def test_fuzz_against_full_dp(self, seed):
        import random

        rng = random.Random(seed)
        symbols = ["p", "b", "t", "d", "h", "ə", "a", "i", "u", "m", "n", "r"]
        costs_options = [
            LevenshteinCost(),
            ClusteredCost(0.25),
            ClusteredCost(0.5, weak_indel_cost=1.0, vowel_cross_cost=1.0),
            ClusteredCost(0.0),
        ]
        for _ in range(300):
            a = [rng.choice(symbols) for _ in range(rng.randint(0, 8))]
            b = [rng.choice(symbols) for _ in range(rng.randint(0, 8))]
            costs = rng.choice(costs_options)
            budget = rng.choice([0.0, 0.25, 0.5, 1.0, 2.0, 3.5])
            full = edit_distance(a, b, costs)
            banded = edit_distance_within(a, b, budget, costs)
            if full <= budget + 1e-12:
                assert banded is not None
                assert abs(banded - full) < 1e-9
            else:
                assert banded is None
