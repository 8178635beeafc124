"""Vectorized batch edit distances (numpy).

The quality experiments (paper Figures 11/12) compare *every* phoneme
string in the lexicon with every other — ~3M dynamic programs per cost
setting — and every filtered LexEQUAL query verifies its candidates.
This module computes Clustered Edit Distances for one query against
many candidates at once with one kernel family; exact distances are the
thresholded kernel at an infinite budget.

The insertion recurrence ``curr[j] = min(t[j], curr[j-1] + ins_j)`` looks
inherently sequential, but with non-negative insertion costs it unrolls
to a prefix minimum::

    curr[j] = C[j] + min_{k <= j} (t[k] - C[k]),   C[j] = sum_{l<=j} ins_l

which is ``np.minimum.accumulate`` — so each DP row is a handful of numpy
operations over a (batch, length) matrix.  Results are bit-identical to
:func:`repro.matching.editdist.edit_distance` (the test suite checks).

:func:`batch_edit_distances_within` is the vectorized counterpart of
:func:`repro.matching.editdist.edit_distance_within`: one padded DP
per cache-sized block of candidates (every surviving candidate in the
block advances one DP row per numpy step, whatever its length).  A DP
row is a ``take`` and six ufunc calls; every few rows, candidates whose
smallest real cell already exceeds their budget are compressed out
(exact, because costs are non-negative), and the matrix narrows when
the longest survivor shortens.  Before any DP row, a class-count lower
bound (:func:`count_bounds`, over the partition of
:func:`repro.matching.costs.count_classes`) drops candidates whose
symbol counts per class of cheap substitutions already cost more than
their budget — lossless, and at the paper's clustered costs it keeps
most pairs out of the DP (DESIGN.md §9).  Callers that store per-class
counts (the phoneme store, the parallel executor's shared table) pass
them in; codes are gathered only for the candidates that survive.
"""

from __future__ import annotations

import time
from collections.abc import Sequence

import numpy as np

from repro import deadline, obs
from repro.errors import DeadlineExceededError
from repro.matching.costs import CostModel, count_classes


class CostTables:
    """Kernel-facing cost tables, plus the class-count bound's tables.

    ``sub[a, b]`` substitutes query symbol ``a`` with candidate symbol
    ``b``; ``ins``/``dele`` insert a candidate symbol and delete a query
    symbol; ``min_indel`` is the cheapest insert or delete.  ``classes``
    is the bound's partition of the symbols
    (:func:`repro.matching.costs.count_classes`), and ``wq``/``wc`` its
    weights (:func:`class_weights`), derived here from the partition and
    the cost tables, so every holder of them — a cost model compiled in
    this process or a worker's zero-copy views over a shared segment —
    prunes identically.
    """

    def __init__(self, sub, ins, dele, min_indel: float, classes):
        self.sub = sub
        self.ins = ins
        self.dele = dele
        self.min_indel = min_indel
        self.classes = classes
        self.wq, self.wc = class_weights(classes, sub, ins, dele)


class EncodedCosts(CostTables):
    """A cost model compiled to integer-indexed numpy lookup tables."""

    def __init__(self, costs: CostModel, symbols: Sequence[str]):
        self.costs = costs
        self.index: dict[str, int] = {}
        for sym in symbols:
            if sym not in self.index:
                self.index[sym] = len(self.index)
        size = len(self.index)
        sub = np.zeros((size, size), dtype=np.float64)
        ins = np.zeros(size, dtype=np.float64)
        dele = np.zeros(size, dtype=np.float64)
        for a, ia in self.index.items():
            ins[ia] = costs.insert(a)
            dele[ia] = costs.delete(a)
            for b, ib in self.index.items():
                sub[ia, ib] = costs.substitute(a, b)
        classes = np.array(
            count_classes(costs, tuple(self.index)), dtype=np.intp
        )
        super().__init__(
            sub, ins, dele, float(costs.min_indel_cost()), classes
        )

    def encode(self, tokens: Sequence[str]) -> np.ndarray:
        """Token sequence -> int vector (tokens must be known symbols)."""
        return np.fromiter(
            (self.index[t] for t in tokens), dtype=np.int64, count=len(tokens)
        )


def class_weights(classes, sub, ins, dele):
    """``(wq, wc)`` for a partition ``classes`` of the symbols.

    ``wq[K]`` is the cheapest way to move a query symbol of class ``K``
    out of it — delete it, or substitute it with a symbol of another
    class; ``wc[K]`` is the same for a candidate symbol, with insertions
    and ``sub[a, s]``.  Any partition gives a sound bound (see
    :func:`count_bounds`); :func:`~repro.matching.costs.count_classes`
    only makes it tight.
    """
    count = int(classes.max()) + 1 if len(classes) else 0
    out_sub = np.where(classes[:, None] != classes, sub, np.inf)
    wq = np.full(count, np.inf)
    wc = np.full(count, np.inf)
    np.minimum.at(
        wq, classes, np.minimum(dele, out_sub.min(axis=1, initial=np.inf))
    )
    np.minimum.at(
        wc, classes, np.minimum(ins, out_sub.min(axis=0, initial=np.inf))
    )
    # An infinite weight (a class no symbol occupies) drops to 0: a lower
    # weight keeps the bound sound, and ``0 * inf`` cannot poison a sum.
    wq[np.isinf(wq)] = 0.0
    wc[np.isinf(wc)] = 0.0
    return wq, wc


def count_bounds(
    q: np.ndarray,
    counts: np.ndarray,
    encoded,
    rows: np.ndarray | None = None,
    totals: np.ndarray | None = None,
) -> np.ndarray:
    """A lower bound on each candidate's edit distance from ``q``.

    ``counts[r, K]`` is table row ``r``'s number of class-``K`` symbols
    (any int dtype) and ``totals[r]`` its weighted total ``Σ_K wc[K] ·
    counts[r, K]`` (computed from ``counts`` when None); the candidates
    are the table rows ``rows`` (None: every row).  With ``hq``/``hc``
    the query's and a candidate's per-class counts, the bound is
    ``max(Σ wq·(hq − hc)⁺, Σ wc·(hc − hq)⁺)``.  It is sound for any
    partition and any costs (no triangle inequality needed): an edit
    script touches each symbol once, and at most ``hc[K]`` query
    symbols of class ``K`` can be substituted within ``K``, so every
    other one is deleted or substituted out of ``K`` — at least
    ``wq[K]`` each, one query symbol per operation; likewise for the
    candidate side.

    Only the query's classes can have ``hq > 0``, so only those columns
    are read; a candidate's classes outside them weigh ``totals − Σ_{K
    in query} wc[K]·hc[K]``.  That difference is snapped to zero below
    ``1e-9 · totals``, so rounding can only lower the bound and a true
    zero is computed as exactly zero.
    """
    if rows is None:
        rows = np.arange(len(counts))
    if totals is None:
        totals = counts @ encoded.wc
    hq = np.bincount(encoded.classes[q], minlength=len(encoded.wq))
    q_classes = np.flatnonzero(hq)
    hc = counts[rows[:, None], q_classes]
    excess = hc - hq[q_classes]  # an int64 array: never wraps
    wq, wc = encoded.wq[q_classes], encoded.wc[q_classes]
    total = totals[rows]
    outside = total - hc @ wc
    outside[outside <= 1e-9 * total] = 0.0
    return np.maximum(
        np.maximum(-excess, 0) @ wq,
        np.maximum(excess, 0) @ wc + outside,
    )


def _recount(codes, starts, lens, encoded) -> np.ndarray:
    """Per-class symbol counts of the runs
    ``codes[starts[i] : starts[i] + lens[i]]``: the :func:`count_bounds`
    input for callers that store none."""
    batch = len(lens)
    width = len(encoded.wq)
    row = np.repeat(np.arange(batch), lens)
    index = np.repeat(starts - (np.cumsum(lens) - lens), lens)
    index += np.arange(len(index))
    return np.bincount(
        row * width + encoded.classes[codes[index]],
        minlength=batch * width,
    ).reshape(batch, width)


#: Candidate-axis block size for the padded all-candidates DP.  Each DP
#: row touches a handful of (B, m) float64 temporaries; at 200k rows one
#: full-width matrix spills far out of cache and the kernel slows ~4x.
#: Blocks of 8k candidates keep the working set cache-resident.
#: Blocking is exact by construction: candidates never interact, so
#: running the DP per block returns identical values per candidate.
PADDED_BLOCK = 8192


def _batch_deadline_cancel(cells: int) -> DeadlineExceededError:
    """Account a cooperative batch-DP cancellation and build its error."""
    obs.incr("matching.batch.cells", cells)
    obs.incr("matching.dp.deadline_cancels")
    return DeadlineExceededError(
        "request deadline exceeded during edit-distance matching"
    )


def batch_edit_distances(
    query: Sequence[str],
    candidates: list[Sequence[str]],
    encoded: EncodedCosts,
) -> np.ndarray:
    """Exact edit distances from ``query`` to every candidate.

    The thresholded kernel at an infinite budget: nothing is clipped or
    pruned, so every candidate's final DP cell is its exact distance.
    """
    return batch_edit_distances_within(query, candidates, encoded, np.inf)


def batch_edit_distances_within(
    query: Sequence[str],
    candidates: list[Sequence[str]],
    encoded: EncodedCosts,
    budgets,
) -> np.ndarray:
    """Thresholded batch distances (vectorized ``edit_distance_within``).

    ``budgets`` is a scalar or a per-candidate array.  Returns a float
    array aligned with ``candidates``: the exact edit distance where it
    does not exceed that candidate's budget, ``np.inf`` otherwise (so
    ``np.isfinite(result)`` is the accept mask).  Distances and accept
    decisions are identical to the scalar kernels (the differential
    suite checks).
    """
    count = len(candidates)
    offsets = np.zeros(count + 1, dtype=np.int64)
    np.cumsum(
        np.fromiter((len(c) for c in candidates), np.int64, count),
        out=offsets[1:],
    )
    codes = np.empty(int(offsets[-1]), dtype=np.int64)
    for i, cand in enumerate(candidates):
        codes[offsets[i] : offsets[i + 1]] = encoded.encode(cand)
    return batch_edit_distances_within_encoded(
        encoded.encode(query), codes, offsets, encoded, budgets
    )


def batch_edit_distances_within_encoded(
    q: np.ndarray,
    codes: np.ndarray,
    offsets: np.ndarray,
    encoded: CostTables,
    budgets,
    rows: np.ndarray | None = None,
    counts: dict | None = None,
) -> np.ndarray:
    """`batch_edit_distances_within` over pre-encoded flat int arrays.

    ``codes``/``offsets`` describe the candidate table in CSR layout:
    candidate ``i`` is ``codes[offsets[i]:offsets[i+1]]``.  The bound
    recounts each candidate's classes from its codes; see
    :func:`batch_edit_distances_within_runs` for the rest.
    """
    return batch_edit_distances_within_runs(
        q, codes, offsets[:-1], np.diff(offsets), encoded, budgets, rows, counts
    )


def batch_edit_distances_within_runs(
    q: np.ndarray,
    codes: np.ndarray,
    starts: np.ndarray,
    lens: np.ndarray,
    encoded: CostTables,
    budgets,
    rows: np.ndarray | None = None,
    counts: dict | None = None,
    class_counts: np.ndarray | None = None,
    class_totals: np.ndarray | None = None,
) -> np.ndarray:
    """The thresholded kernel over a table of runs of one flat code
    array: row ``r`` is ``codes[starts[r]:starts[r] + lens[r]]``, with
    per-class symbol counts ``class_counts[r]`` and their weighted total
    ``class_totals[r]`` (see :func:`count_bounds`).  The entry point for
    callers that hold codes already — a phoneme store's code column, or
    a shared-memory table that worker processes attach to.

    ``rows`` optionally selects a subset of the table; ``budgets``
    (scalar or per candidate) and the result align with ``rows`` when
    given, with the whole table otherwise.  A candidate reaches the
    banded DP only if it passes the length filter and the class-count
    lower bound over its stored counts (a :func:`_recount` from its
    codes when ``class_counts`` is None), and only those candidates'
    codes are gathered.  ``counts["dp"]``, when given, grows by the
    number that reach the DP.
    """
    if rows is None:
        rows = np.arange(len(starts))
    else:
        starts, lens = starts[rows], lens[rows]
    count = len(rows)
    result = np.full(count, np.inf, dtype=np.float64)
    budgets = np.broadcast_to(
        np.asarray(budgets, dtype=np.float64), (count,)
    )
    n = len(q)
    # Length filter: |len difference| indels are unavoidable.
    feasible = np.abs(lens - n) * encoded.min_indel <= budgets
    obs.incr("matching.batch.calls")
    if not feasible.any():
        return result
    # The class-count bound prunes before the DP; it cannot prune at an
    # infinite budget, so exact-distance callers skip it.
    bounded = not np.isinf(budgets).all()
    if bounded and class_counts is not None and class_totals is None:
        # Once per call: count_bounds would recompute it per block.
        class_totals = class_counts @ encoded.wc
    deadline_at = deadline.current()
    stats = {"cells": 0, "pruned": 0, "bound_pruned": 0}
    idx = np.flatnonzero(feasible)
    for lo in range(0, len(idx), PADDED_BLOCK):
        blk = idx[lo : lo + PADDED_BLOCK]
        if bounded:
            if class_counts is None:
                bounds = count_bounds(
                    q, _recount(codes, starts[blk], lens[blk], encoded), encoded
                )
            else:
                bounds = count_bounds(
                    q, class_counts, encoded, rows[blk], class_totals
                )
            # The slack lets rounding only ever keep a pair.
            keep = bounds <= budgets[blk] * (1 + 1e-9)
            stats["bound_pruned"] += len(blk) - int(keep.sum())
            blk = blk[keep]
            if not blk.size:
                continue
        if counts is not None:
            counts["dp"] += len(blk)
        result[blk] = _padded_within(
            q,
            codes,
            starts[blk],
            lens[blk],
            encoded,
            budgets[blk],
            bounded,
            deadline_at,
            stats,
        )
    obs.incr("matching.batch.cells", stats["cells"])
    if stats["pruned"]:
        obs.incr("matching.batch.pruned", stats["pruned"])
    if stats["bound_pruned"]:
        obs.incr("matching.batch.bound_pruned", stats["bound_pruned"])
    return result


#: DP rows between two dead-candidate checks in :func:`_padded_within`.
#: A check costs about as much as a DP row; between checks a dead
#: candidate only wastes cells, never changes an answer.
_PRUNE_EVERY = 4


def _padded_within(
    q: np.ndarray,
    codes: np.ndarray,
    starts: np.ndarray,
    lens: np.ndarray,
    encoded: CostTables,
    budgets: np.ndarray,
    checked: bool,
    deadline_at: float | None,
    stats: dict,
) -> np.ndarray:
    """Banded DP over *all* candidates at once, padded to the longest.

    Candidates of every length share one (B, m_max) matrix: column
    ``j`` of candidate ``b`` is real only while ``j < lens[b]``.
    Padding is inert by construction — DP column ``j`` depends only on
    columns ``<= j``, and the prefix-min insertion trick accumulates
    left to right, so garbage in padded columns can never flow into a
    real cell; each candidate's answer is read from its own final
    column.

    A DP row is a ``take`` and six ufunc calls, with no clipping: the
    cells hold the exact DP values.  Every :data:`_PRUNE_EVERY` rows
    (when ``checked``: some budget is finite), a
    candidate whose smallest *real* cell exceeds its budget is
    compressed out of the batch, and the matrix narrows whenever the
    longest surviving candidate shortens.  That check is exact: costs
    are non-negative, so no cell of a later row (the final cell
    included) is smaller than the current row's minimum.  The final
    cells are compared with the budgets once, at the end.
    """
    batch = len(starts)
    n = len(q)
    m_max = int(lens.max())
    out = np.full(batch, np.inf, dtype=np.float64)
    active = np.arange(batch)
    alive_lens = lens.astype(np.int64)
    bud = budgets.astype(np.float64)
    # Padded cells gather any in-range code: they are inert.
    group = codes[
        np.minimum(starts[:, None] + np.arange(m_max), len(codes) - 1)
    ].astype(np.intp, copy=False)
    c = np.zeros((batch, m_max + 1), dtype=np.float64)
    np.cumsum(encoded.ins[group], axis=1, out=c[:, 1:])
    # DP column j covers candidate prefix j: real while j <= len.
    invalid = np.arange(m_max + 1) > alive_lens[:, None]
    prev = c.copy()
    # Work buffers reused by every DP row (swapped with prev), so a row
    # allocates nothing: steady memory in long-lived threads.
    nxt = np.empty_like(prev)
    sub = np.empty_like(c[:, 1:])
    cells = int(alive_lens.sum()) + batch
    sub_rows = encoded.sub[q]
    del_costs = encoded.dele[q].tolist()
    for i in range(n):
        # Cooperative cancellation: one clock read per DP row, as in the
        # scalar kernels.
        if deadline_at is not None and time.monotonic() > deadline_at:
            raise _batch_deadline_cancel(stats["cells"])
        sub_rows[i].take(group, out=sub)
        np.add(prev[:, :-1], sub, out=sub)
        # nxt = [t0, t] - c, t0 = prev[0] + del,
        # t = min(prev[1:] + del, prev[:-1] + sub)
        np.add(prev, del_costs[i], out=nxt)
        np.minimum(nxt[:, 1:], sub, out=nxt[:, 1:])
        np.subtract(nxt, c, out=nxt)
        np.minimum.accumulate(nxt, axis=1, out=nxt)
        np.add(nxt, c, out=nxt)
        prev, nxt = nxt, prev
        stats["cells"] += cells
        if not checked or (i + 1) % _PRUNE_EVERY or i + 1 == n:
            continue
        dead = np.where(invalid, np.inf, prev).min(axis=1) > bud
        if dead.any():
            stats["pruned"] += int(dead.sum())
            keep = ~dead
            if not keep.any():
                return out
            active = active[keep]
            alive_lens = alive_lens[keep]
            width = int(alive_lens.max()) + 1
            group = group[keep, : width - 1]
            c = c[keep, :width]
            bud = bud[keep]
            invalid = invalid[keep, :width]
            prev = prev[keep, :width]
            nxt = np.empty_like(prev)
            sub = np.empty_like(c[:, 1:])
            cells = int(alive_lens.sum()) + len(active)
    final = prev[np.arange(len(active)), alive_lens]
    final[final > bud] = np.inf
    out[active] = final
    return out


def pairwise_distance_matrix(
    strings: list[Sequence[str]],
    costs: CostModel,
    symbols: Sequence[str] | None = None,
) -> np.ndarray:
    """Full symmetric matrix of edit distances between all strings.

    ``symbols`` defaults to the union of symbols in ``strings``.  With a
    symmetric cost model the matrix is symmetric; we compute the upper
    triangle once per row and mirror it.
    """
    if symbols is None:
        seen: dict[str, None] = {}
        for s in strings:
            for tok in s:
                seen.setdefault(tok)
        symbols = list(seen)
    encoded = EncodedCosts(costs, symbols)
    n = len(strings)
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum([len(s) for s in strings], out=offsets[1:])
    chunks = [encoded.encode(s) for s in strings]
    codes = np.concatenate(chunks) if chunks else np.empty(0, np.int64)
    matrix = np.zeros((n, n), dtype=np.float64)
    for i in range(n - 1):
        row = batch_edit_distances_within_encoded(
            chunks[i], codes, offsets, encoded, np.inf,
            rows=np.arange(i + 1, n),
        )
        matrix[i, i + 1 :] = row
        matrix[i + 1 :, i] = row
    return matrix
