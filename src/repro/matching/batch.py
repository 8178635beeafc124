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
block advances one DP row per numpy step, whatever its length), with a
value-clipping band (cells over budget become ``inf`` — no over-budget
cell can lie on the optimal path of a within-budget result, so
clipping is exact and subsumes the Ukkonen band, whose off-diagonal
cells always exceed the budget), dead-candidate compression that drops
candidates whose whole DP row went over budget, and matrix narrowing
when the longest survivor shortens.  The parallel executor
(:mod:`repro.parallel`) attaches to pre-encoded int arrays in shared
memory and calls the ``_encoded`` variant directly.

numpy is an optional dependency of the library proper: only this module
and its callers (the verifier, the embedding prefilter, the parallel
executor and the evaluation harness) import it.
"""

from __future__ import annotations

import time
from collections.abc import Sequence

import numpy as np

from repro import deadline, obs
from repro.errors import DeadlineExceededError
from repro.matching.costs import CostModel


class EncodedCosts:
    """A cost model compiled to integer-indexed numpy lookup tables."""

    def __init__(self, costs: CostModel, symbols: Sequence[str]):
        self.costs = costs
        self.index: dict[str, int] = {}
        for sym in symbols:
            if sym not in self.index:
                self.index[sym] = len(self.index)
        size = len(self.index)
        self.sub = np.zeros((size, size), dtype=np.float64)
        self.ins = np.zeros(size, dtype=np.float64)
        self.dele = np.zeros(size, dtype=np.float64)
        for a, ia in self.index.items():
            self.ins[ia] = costs.insert(a)
            self.dele[ia] = costs.delete(a)
            for b, ib in self.index.items():
                self.sub[ia, ib] = costs.substitute(a, b)
        #: Cached for the banded kernels (worker processes receive this
        #: object pickled; the scalar lookup avoids re-deriving it).
        self.min_indel = float(costs.min_indel_cost())

    def encode(self, tokens: Sequence[str]) -> np.ndarray:
        """Token sequence -> int vector (tokens must be known symbols)."""
        return np.fromiter(
            (self.index[t] for t in tokens), dtype=np.int64, count=len(tokens)
        )


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
    encoded: EncodedCosts,
    budgets,
    rows: np.ndarray | None = None,
) -> np.ndarray:
    """`batch_edit_distances_within` over pre-encoded flat int arrays.

    ``codes``/``offsets`` describe the candidate table in CSR layout:
    candidate ``i`` is ``codes[offsets[i]:offsets[i+1]]``.  ``rows``
    optionally selects a subset of candidates (indices into the CSR
    table); ``budgets`` and the result align with ``rows`` when given,
    with the whole table otherwise.  This is the fork-friendly entry
    point: worker processes hold the arrays (shipped once) and evaluate
    shards without rebuilding Python objects.
    """
    all_starts = offsets[:-1]
    all_lens = np.diff(offsets)
    if rows is None:
        starts, lens = all_starts, all_lens
    else:
        starts, lens = all_starts[rows], all_lens[rows]
    count = len(starts)
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
    deadline_at = deadline.current()
    stats = {"cells": 0, "pruned": 0}
    idx = np.nonzero(feasible)[0]
    for lo in range(0, len(idx), PADDED_BLOCK):
        blk = idx[lo : lo + PADDED_BLOCK]
        result[blk] = _padded_within(
            q,
            codes,
            starts[blk],
            lens[blk],
            encoded,
            budgets[blk],
            deadline_at,
            stats,
        )
    obs.incr("matching.batch.cells", stats["cells"])
    if stats["pruned"]:
        obs.incr("matching.batch.pruned", stats["pruned"])
    return result


def _padded_within(
    q: np.ndarray,
    codes: np.ndarray,
    starts: np.ndarray,
    lens: np.ndarray,
    encoded: EncodedCosts,
    budgets: np.ndarray,
    deadline_at: float | None,
    stats: dict,
) -> np.ndarray:
    """Banded DP over *all* candidates at once, padded to the longest.

    Candidates of every length share one (B, m_max) matrix: column
    ``j`` of candidate ``b`` is real only while ``j < lens[b]``
    (``colvalid``).  Padding is inert by construction — DP column ``j``
    depends only on columns ``<= j``, and the prefix-min insertion
    trick accumulates left to right, so garbage in padded columns can
    never flow into a real cell; each candidate's answer is read from
    its own final column.  Cells over their candidate's budget are
    clipped to ``inf`` after every row (exact — see module docstring),
    dead candidates (every *real* cell over budget) are compressed out
    of the batch mid-flight, and the matrix narrows whenever the
    longest surviving candidate shortens.  One DP row is ~10 numpy ops
    for the whole candidate set, versus one scalar DP per pair in the
    reference.
    """
    batch = len(starts)
    n = len(q)
    m_max = int(lens.max()) if batch else 0
    out = np.full(batch, np.inf, dtype=np.float64)
    active = np.arange(batch)
    alive_lens = lens.astype(np.int64)
    bud = budgets.astype(np.float64).reshape(batch, 1)
    if m_max:
        cols = np.arange(m_max)
        valid = cols < alive_lens[:, None]  # (B, m_max)
        group = codes[np.where(valid, starts[:, None] + cols, 0)]
        ins_costs = np.where(valid, encoded.ins[group], 0.0)
    else:
        valid = np.zeros((batch, 0), dtype=bool)
        group = np.zeros((batch, 0), dtype=np.int64)
        ins_costs = np.zeros((batch, 0), dtype=np.float64)
    c = np.zeros((batch, m_max + 1), dtype=np.float64)
    np.cumsum(ins_costs, axis=1, out=c[:, 1:])
    # Column 0 (empty prefix) is real for everyone; column j covers
    # candidate prefix j, real while j - 1 < len.
    colvalid = np.concatenate(
        [np.ones((batch, 1), dtype=bool), valid], axis=1
    )
    prev = np.where(c > bud, np.inf, c)
    # Work buffers reused by every DP row (swapped with prev), so a row
    # allocates nothing: steady memory in long-lived threads.
    nxt = np.empty_like(prev)
    sub = np.empty_like(c[:, 1:])
    over = np.empty(c.shape, dtype=bool)
    invalid = ~colvalid
    cells = int(colvalid.sum())
    for i in range(n):
        # Cooperative cancellation: one clock read per DP row, as in the
        # scalar kernels.
        if deadline_at is not None and time.monotonic() > deadline_at:
            raise _batch_deadline_cancel(stats["cells"])
        del_cost = encoded.dele[q[i]]
        np.take(encoded.sub[q[i]], group, out=sub)
        np.add(prev[:, :-1], sub, out=sub)
        # nxt = [t0, t] - c, t0 = prev[0] + del,
        # t = min(prev[1:] + del, prev[:-1] + sub)
        np.add(prev, del_cost, out=nxt)
        np.minimum(nxt[:, 1:], sub, out=nxt[:, 1:])
        np.subtract(nxt, c, out=nxt)
        np.minimum.accumulate(nxt, axis=1, out=nxt)
        np.add(nxt, c, out=nxt)
        np.greater(nxt, bud, out=over)
        nxt[over] = np.inf
        stats["cells"] += cells
        np.logical_or(over, invalid, out=over)
        dead = over.all(axis=1)
        if dead.any():
            stats["pruned"] += int(dead.sum())
            keep = ~dead
            if not keep.any():
                return out
            group = group[keep]
            c = c[keep]
            bud = bud[keep]
            active = active[keep]
            alive_lens = alive_lens[keep]
            invalid = invalid[keep]
            nxt = nxt[keep]
            narrowed = int(alive_lens.max())
            if narrowed < group.shape[1]:
                group = group[:, :narrowed]
                c = c[:, : narrowed + 1]
                invalid = invalid[:, : narrowed + 1]
                nxt = nxt[:, : narrowed + 1]
            prev = np.empty_like(nxt)
            sub = np.empty_like(c[:, 1:])
            over = np.empty(c.shape, dtype=bool)
            cells = int(invalid.size - invalid.sum())
        prev, nxt = nxt, prev
    out[active] = prev[np.arange(len(active)), alive_lens]
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
