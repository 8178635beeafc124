"""Nearest-rank percentiles for benchmark latency samples.

A percentile is only reported when the sample supports it: the guide the
benchmark follows asks for the median plus the highest percentile that
still has at least :data:`MIN_BEYOND` samples beyond it.  An empty
sample is an error, never a silent ``0.0``.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from statistics import median

#: Samples a percentile needs beyond it before it counts as supported.
MIN_BEYOND = 10

#: Candidate tail percentiles, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile (0 < q <= 100) of ``values``."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 < q <= 100.0:
        raise ValueError(f"percentile {q} not in (0, 100]")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def beyond(count: int, q: float) -> int:
    """How many of ``count`` samples lie beyond the nearest-rank ``q``."""
    return count - max(1, math.ceil(q / 100.0 * count))


def tail(values: Sequence[float]) -> tuple[int, float | None, float | None]:
    """``(n, q, value)`` for the highest supported tail percentile.

    ``q`` and ``value`` are ``None`` when even the median lacks
    :data:`MIN_BEYOND` samples beyond it.
    """
    if not values:
        raise ValueError("tail of an empty sample")
    n = len(values)
    for q in TAIL_PERCENTILES:
        if beyond(n, q) >= MIN_BEYOND:
            return n, q, percentile(values, q)
    return n, None, None


#: Consecutive blocks a run's operations are split into.  On a shared
#: 2-CPU host the CPU runs about a third slower in bursts of a few
#: seconds; the median over blocks keeps one burst from moving a run's
#: throughput.  (A median latency needs no blocks: a burst moves it
#: little, and blocks of a few hundred samples add sampling noise.)
BLOCKS = 5


def blocks(intervals: Sequence[tuple[float, float]], count: int = BLOCKS):
    """``(start, end)`` intervals in start order, cut into ``count`` runs
    of near-equal size (fewer when there are fewer intervals)."""
    if not intervals:
        raise ValueError("blocks of an empty sample")
    ordered = sorted(intervals)
    count = min(count, len(ordered))
    size = len(ordered) / count
    return [
        ordered[round(i * size) : round((i + 1) * size)] for i in range(count)
    ]


def blocked_rate(intervals) -> float:
    """Median over blocks of operations completed per second of wall."""
    return median(
        len(block) / (max(end for _, end in block) - min(s for s, _ in block))
        for block in blocks(intervals)
    )
