"""Dynamic-programming edit distance (paper Figure 8).

Two entry points:

* :func:`edit_distance` — the full O(|L|·|R|) dynamic program, a direct
  transcription of the ``editdistance`` routine in paper Figure 8 with
  pluggable ``InsCost``/``DelCost``/``SubCost`` (a :class:`CostModel`).
  This is what the paper's PL/SQL UDF computes, and what the *naive UDF*
  benchmark strategy deliberately uses.

* :func:`edit_distance_within` — a thresholded variant that only fills the
  diagonal band that can stay within the cost budget and abandons the
  computation as soon as every cell of a row exceeds it (Ukkonen's
  cut-off).  On top of the static band the kernel keeps an *adaptive
  window*: the column range of the previous row whose cells were still
  within budget.  Cells outside that window are provably over budget
  (every DP predecessor is, and costs are non-negative), so each row
  only fills the intersection of the static band with the window grown
  by one column, plus the pure-insertion extension to its right.  The
  window shrinks as mismatches accumulate and the scan aborts when it
  empties.  Results are identical whenever the true distance is within
  the budget; the function returns ``None`` instead of the (possibly
  huge) exact distance otherwise.  The accelerated strategies use this.

Both accept any sequences of hashable tokens; in this library they are
phoneme-symbol tuples from :func:`repro.phonetics.parse.parse_ipa`.
"""

from __future__ import annotations

import time
from collections.abc import Sequence

from repro import deadline, obs
from repro.errors import DeadlineExceededError
from repro.matching.costs import CostModel, UNIT_COST

_INF = float("inf")


def _deadline_cancel(cells: int) -> DeadlineExceededError:
    """Account a cooperative DP cancellation and build its error."""
    obs.incr("matching.dp.cells", cells)
    obs.incr("matching.dp.deadline_cancels")
    return DeadlineExceededError(
        "request deadline exceeded during edit-distance matching"
    )


def edit_distance(
    left: Sequence[str],
    right: Sequence[str],
    costs: CostModel = UNIT_COST,
) -> float:
    """Exact edit distance between two token sequences.

    >>> edit_distance("kitten", "sitting")
    3.0
    """
    len_l, len_r = len(left), len(right)
    obs.incr("matching.dp.calls")
    if len_l == 0:
        return float(sum(costs.insert(t) for t in right))
    if len_r == 0:
        return float(sum(costs.delete(t) for t in left))
    obs.incr("matching.dp.cells", len_l * len_r)
    deadline_at = deadline.current()

    # One row at a time; prev[j] is DistMatrix[i-1, j] of Figure 8.
    prev = [0.0] * (len_r + 1)
    for j in range(1, len_r + 1):
        prev[j] = prev[j - 1] + costs.insert(right[j - 1])
    curr = [0.0] * (len_r + 1)
    for i in range(1, len_l + 1):
        # Cooperative cancellation: with an armed deadline, one clock
        # read per DP row; without, a single None check per call.
        if deadline_at is not None and time.monotonic() > deadline_at:
            raise _deadline_cancel(0)
        tok_l = left[i - 1]
        del_cost = costs.delete(tok_l)
        curr[0] = prev[0] + del_cost
        for j in range(1, len_r + 1):
            tok_r = right[j - 1]
            best = prev[j] + del_cost  # delete from left
            diag = prev[j - 1] + costs.substitute(tok_l, tok_r)
            if diag < best:
                best = diag
            ins = curr[j - 1] + costs.insert(tok_r)
            if ins < best:
                best = ins
            curr[j] = best
        prev, curr = curr, prev
    return prev[len_r]


def edit_distance_within(
    left: Sequence[str],
    right: Sequence[str],
    budget: float,
    costs: CostModel = UNIT_COST,
) -> float | None:
    """Edit distance if it does not exceed ``budget``, else ``None``.

    Only cells within the diagonal band that a budget-respecting edit
    script can reach are evaluated: every step off the diagonal is an
    insertion or deletion costing at least ``costs.min_indel_cost()``, so
    a cell ``(i, j)`` with ``|i - j| * min_indel > budget`` is
    unreachable.  Within that band an adaptive window tracks the columns
    of the previous row still within budget — a cell all of whose DP
    predecessors exceed the budget exceeds it too (costs are
    non-negative), and no cell over budget can lie on the optimal path
    of a within-budget result, so skipping those cells never changes the
    answer.  The scan aborts early once the window empties.
    """
    if budget < 0:
        return None
    len_l, len_r = len(left), len(right)
    obs.incr("matching.dp.calls")
    min_indel = costs.min_indel_cost()
    # Length filter: |len_l - len_r| insertions/deletions are unavoidable.
    if abs(len_l - len_r) * min_indel > budget:
        return None
    if len_l == 0:
        total = float(sum(costs.insert(t) for t in right))
        return total if total <= budget else None
    if len_r == 0:
        total = float(sum(costs.delete(t) for t in left))
        return total if total <= budget else None

    band = int(budget / min_indel)  # max off-diagonal drift within budget
    cells = 0  # banded DP cells actually filled (observability)
    deadline_at = deadline.current()
    prev = [_INF] * (len_r + 1)
    limit = min(len_r, band)
    prev[0] = 0.0
    for j in range(1, limit + 1):
        prev[j] = prev[j - 1] + costs.insert(right[j - 1])
    # Adaptive window [alo, ahi]: the previous row's within-budget column
    # range.  Row 0 is a non-decreasing prefix sum, so a suffix trim finds
    # it (prev[0] == 0.0 <= budget keeps the scan in bounds).
    alo = 0
    ahi = limit
    while prev[ahi] > budget:
        ahi -= 1
    curr = [_INF] * (len_r + 1)
    last = len_r  # rightmost column written in the most recent row
    for i in range(1, len_l + 1):
        # Cooperative cancellation (see edit_distance): per-row check
        # only while a deadline is armed by the serving layer.
        if deadline_at is not None and time.monotonic() > deadline_at:
            raise _deadline_cancel(cells)
        tok_l = left[i - 1]
        del_cost = costs.delete(tok_l)
        # Cells reachable from the previous row: static band intersected
        # with the window grown one column right (diagonal step).
        lo = max(1, i - band, alo)
        hi = min(len_r, i + band, ahi + 1)
        if lo > hi:
            obs.incr("matching.dp.cells", cells)
            obs.incr("matching.dp.early_aborts")
            return None
        # Left boundary: the deletion-only column 0 participates only
        # while the previous row's column 0 is itself within budget.
        if lo == 1 and alo == 0:
            curr[0] = prev[0] + del_cost
        else:
            curr[lo - 1] = _INF
        for j in range(lo, hi + 1):
            tok_r = right[j - 1]
            best = prev[j] + del_cost
            diag = prev[j - 1] + costs.substitute(tok_l, tok_r)
            if diag < best:
                best = diag
            ins = curr[j - 1] + costs.insert(tok_r)
            if ins < best:
                best = ins
            curr[j] = best
        cells += hi - lo + 1
        # Pure-insertion extension: right of the window, cells depend
        # only on their left neighbour; extend while within budget (the
        # static band caps how far an insertion run can drift).
        ext = min(len_r, i + band)
        j = hi + 1
        while j <= ext and curr[j - 1] <= budget:
            curr[j] = curr[j - 1] + costs.insert(right[j - 1])
            cells += 1
            j += 1
        last = j - 1
        # Next window: first/last within-budget cells of this row.
        alo = -1
        for j in range(lo - 1, last + 1):
            if curr[j] <= budget:
                alo = j
                break
        if alo == -1:
            obs.incr("matching.dp.cells", cells)
            obs.incr("matching.dp.early_aborts")
            return None
        ahi = last
        while curr[ahi] > budget:
            ahi -= 1
        # Seal the flanks so the next row never reads a stale cell from
        # two rows back (its reads stay within [lo-2, last+1]).
        if lo >= 2:
            curr[lo - 2] = _INF
        if last < len_r:
            curr[last + 1] = _INF
        prev, curr = curr, prev
    obs.incr("matching.dp.cells", cells)
    if len_r > last:
        return None  # final column never came within reach
    result = prev[len_r]
    return result if result <= budget else None

