"""Positional q-grams and the length / count / position filters.

Paper Section 5.2 adapts the approximate-join filters of Gravano et al.
(ref. [6]) to phoneme strings.  Definitions (paper footnote 4):

* a string of length ``n`` is extended with ``q - 1`` start symbols and
  ``q - 1`` end symbols that are outside the alphabet;
* its *positional q-grams* are the pairs ``(i, extended[i : i + q])`` for
  ``i = 1 .. n + q - 1``.

The three filters are *necessary* conditions for two strings to be within
(unit-cost) edit distance ``k``:

* **length filter** — the lengths differ by at most ``k``;
* **count filter** — the strings share at least
  ``max(|s1|, |s2|) - 1 - (k - 1) * q`` q-grams;
* **position filter** — only q-gram occurrences whose positions differ by
  at most ``k`` may be counted as shared.

Following the SQL formulation of paper Figure 14, the shared-gram count is
the number of *joined pairs* ``(g1, g2)`` with equal grams and close
positions; this over-counts duplicated grams relative to a perfect bag
intersection, which keeps the filter conservative (it can only let extra
candidates through, never drop a true match).

:class:`repro.core.sources.QGramSource` applies the filters to every
stored key at once; this module holds the shared definitions.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import NamedTuple

from repro import obs
from repro.errors import MatchConfigError

#: Start sentinel prepended to the extended string (outside any alphabet).
START_SYMBOL = "◂"  # ◂
#: End sentinel appended to the extended string.
END_SYMBOL = "▸"  # ▸


class PositionalQGram(NamedTuple):
    """A q-gram occurrence: 1-based position plus the gram itself."""

    pos: int
    gram: tuple[str, ...]


def positional_qgrams(
    tokens: Sequence[str], q: int = 2
) -> tuple[PositionalQGram, ...]:
    """Positional q-grams of a token sequence.

    >>> [g.gram for g in positional_qgrams("ab", q=2)]  # doctest: +SKIP
    [('◂', 'a'), ('a', 'b'), ('b', '▸')]
    """
    extended = extended_tokens(tokens, q)
    return tuple(
        PositionalQGram(i + 1, extended[i : i + q])
        for i in range(len(extended) - q + 1)
    )


def extended_tokens(tokens: Sequence[str], q: int) -> tuple:
    """``tokens`` between ``q - 1`` start and ``q - 1`` end symbols: the
    gram at 1-based position ``i`` is ``extended[i - 1 : i - 1 + q]``."""
    if q < 1:
        raise MatchConfigError(f"q must be >= 1, got {q}")
    return (START_SYMBOL,) * (q - 1) + tuple(tokens) + (END_SYMBOL,) * (q - 1)


def count_filter_threshold(len_a: int, len_b: int, k: float, q: int) -> float:
    """Minimum number of shared q-grams required by the count filter.

    May be zero or negative for short strings / large ``k``, in which case
    the count filter is vacuous (any pair passes).
    """
    return max(len_a, len_b) - 1 - (k - 1) * q


def matching_qgram_pairs(
    grams_a: Sequence[PositionalQGram],
    grams_b: Sequence[PositionalQGram],
    k: float,
) -> int:
    """Number of q-gram pairs with equal grams and positions within ``k``.

    This mirrors the relational join of paper Figure 14 (including its
    bag-pair counting semantics).
    """
    by_gram: dict[tuple[str, ...], list[int]] = {}
    for g in grams_b:
        by_gram.setdefault(g.gram, []).append(g.pos)
    pairs = 0
    for g in grams_a:
        positions = by_gram.get(g.gram)
        if positions:
            pairs += sum(1 for p in positions if abs(g.pos - p) <= k)
    return pairs


def publish_filter_counts(
    pos_pass: int,
    pos_reject: int,
    len_pass: int,
    len_reject: int,
    cnt_pass: int,
    cnt_reject: int,
) -> None:
    """Batch-publish inline filter decisions to the metrics registry.

    The strategy/accelerator hot loops count locally (plain integer
    adds) and publish once per invocation, so instrumentation stays
    free when metrics are disabled.
    """
    if not obs.is_enabled():
        return
    if pos_pass:
        obs.incr("filters.position.pass", pos_pass)
    if pos_reject:
        obs.incr("filters.position.reject", pos_reject)
    if len_pass:
        obs.incr("filters.length.pass", len_pass)
    if len_reject:
        obs.incr("filters.length.reject", len_reject)
    if cnt_pass:
        obs.incr("filters.count.pass", cnt_pass)
    if cnt_reject:
        obs.incr("filters.count.reject", cnt_reject)

