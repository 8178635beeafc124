"""Tests for positional q-grams and the length/count/position filters."""

import pytest

from repro.errors import MatchConfigError
from repro.matching.editdist import edit_distance
from repro.matching.qgrams import (
    END_SYMBOL,
    START_SYMBOL,
    count_filter_threshold,
    matching_qgram_pairs,
    positional_qgrams,
)
from tests.oracle import (
    count_filter,
    length_filter,
    passes_filters,
    position_filter,
    qgram_profile,
)


class TestPositionalQGrams:
    def test_count_is_n_plus_q_minus_1(self):
        for q in (1, 2, 3):
            grams = positional_qgrams("lexequal", q)
            assert len(grams) == len("lexequal") + q - 1

    def test_sentinels_present(self):
        grams = positional_qgrams("ab", 3)
        assert grams[0].gram == (START_SYMBOL, START_SYMBOL, "a")
        assert grams[-1].gram == ("b", END_SYMBOL, END_SYMBOL)

    def test_positions_one_based(self):
        grams = positional_qgrams("abc", 2)
        assert [g.pos for g in grams] == [1, 2, 3, 4]

    def test_q_one_has_no_sentinels(self):
        grams = positional_qgrams("abc", 1)
        assert [g.gram for g in grams] == [("a",), ("b",), ("c",)]

    def test_invalid_q(self):
        with pytest.raises(MatchConfigError):
            positional_qgrams("abc", 0)

    def test_empty_string(self):
        grams = positional_qgrams("", 2)
        assert len(grams) == 1  # the sentinel-only gram

    def test_profile_is_bag(self):
        profile = qgram_profile("aaa", 2)
        assert profile[("a", "a")] == 2


class TestFilters:
    def test_length_filter(self):
        assert length_filter(5, 7, 2)
        assert not length_filter(5, 8, 2)
        assert length_filter(5, 5, 0)

    def test_count_threshold_formula(self):
        # max(l1,l2) - 1 - (k-1)*q
        assert count_filter_threshold(8, 8, 2, 2) == 5
        assert count_filter_threshold(8, 6, 1, 3) == 7

    def test_count_filter_identical_strings(self):
        assert count_filter("lexequal", "lexequal", 0, 2)

    def test_count_filter_rejects_disjoint(self):
        assert not count_filter("aaaa", "bbbb", 1, 2)

    def test_position_filter_rejects_shifted(self):
        # Same grams but positions differ by more than k.
        assert not position_filter("abcdefgh", "efghabcd", 1, 2)

    def test_vacuous_for_large_k(self):
        assert count_filter("ab", "xy", 10, 2)

    def test_matching_pairs_counts_join_pairs(self):
        a = positional_qgrams("aa", 2)
        b = positional_qgrams("aa", 2)
        assert matching_qgram_pairs(a, b, 10) >= len(a)


class TestFilterSoundness:
    """The filters must never reject a pair within unit edit distance k."""

    @pytest.mark.parametrize("seed", range(5))
    def test_no_false_dismissals_random(self, seed):
        import random

        rng = random.Random(seed)
        alphabet = "abcd"
        for _ in range(400):
            a = "".join(
                rng.choice(alphabet) for _ in range(rng.randint(0, 10))
            )
            b = "".join(
                rng.choice(alphabet) for _ in range(rng.randint(0, 10))
            )
            q = rng.choice([2, 3])
            distance = edit_distance(a, b)
            for k in (distance, distance + 1):
                assert passes_filters(a, b, k, q), (a, b, k, q)

    def test_no_false_dismissals_near_neighbors(self):
        import random

        rng = random.Random(99)
        base = "lexequaloperator"
        for _ in range(200):
            chars = list(base)
            ops = rng.randint(0, 3)
            for _ in range(ops):
                kind = rng.choice(["sub", "ins", "del"])
                pos = rng.randrange(len(chars)) if chars else 0
                if kind == "sub" and chars:
                    chars[pos] = rng.choice("abcd")
                elif kind == "ins":
                    chars.insert(pos, rng.choice("abcd"))
                elif chars:
                    del chars[pos]
            mutated = "".join(chars)
            k = edit_distance(base, mutated)
            assert passes_filters(base, mutated, k, 2)
