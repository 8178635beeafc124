"""The cost model behind cost-based LexEQUAL strategy choice.

Costs are in abstract *DP-cell equivalents*: computing one cell of the
clustered-edit-distance matrix costs 1.  Everything else — B+ tree
probes, posting-list scans, per-row UDF dispatch, process-pool overhead
— is expressed as a multiple of that unit, calibrated against the
repository's own benchmarks (BENCH_baseline / BENCH_parallel).  The
absolute numbers only matter through the *ordering* they induce, which
is what the satellite cost-model suite checks: the chosen strategy must
be the measured-fastest (or within a bounded ratio of it).

Strategy estimates (paper Figs. 9–13):

* ``naive``   — DP against every indexed row;
* ``qgram``   — positional q-gram probes, then DP on the surviving
  candidates (lossless superset);
* ``index``   — one grouped-key probe, DP on the bucket (fast, **may
  false-dismiss** — excluded unless ``allow_lossy``);
* ``parallel`` — vectorized banded DP over all rows, sharded across
  workers (lossless; wins only when the table is large enough to
  amortize pool startup/IPC overhead);
* ``ann``     — articulatory-embedding radius prefilter (quantized
  int8 matrix scan), then the vectorized banded kernel on survivors
  (lossy at the default admission radius — excluded unless
  ``allow_lossy``; recall is pinned by the quality harness).
"""

from __future__ import annotations

from dataclasses import dataclass

#: Cost of one B+ tree descent.
PROBE_COST = 8.0
#: Cost of scanning one posting entry during q-gram filtering.
POSTING_COST = 0.15
#: Per-candidate-row overhead (fetch + UDF recheck dispatch).
ROW_OVERHEAD = 4.0
#: Throughput multiple of the vectorized banded kernel over scalar DP.
VECTOR_SPEEDUP = 8.0
#: Fixed DP-cell-equivalent cost of engaging the process pool.
PARALLEL_OVERHEAD = 2.0e5
#: Per-row cost of the quantized int8 embedding scan (one L1 distance
#: over a ~36-dim vector is far cheaper than one DP cell row).
ANN_SCAN_COST = 0.5

ALL_STRATEGIES = ("naive", "qgram", "index", "parallel", "ann")


@dataclass(frozen=True)
class StrategyEstimate:
    """One strategy's predicted candidate count and total cost."""

    strategy: str
    est_rows: float  # rows surviving to the UDF recheck
    est_cost: float  # DP-cell equivalents, probes included
    lossless: bool

    def describe(self) -> str:
        return (
            f"{self.strategy}: est_rows={self.est_rows:.0f} "
            f"est_cost={self.est_cost:.0f}"
            + ("" if self.lossless else " (lossy)")
        )


def estimate_strategies(
    *,
    rows: int,
    query_len: int,
    avg_plen: float,
    qgram_sel: float | None = None,
    index_sel: float | None = None,
    avg_posting: float | None = None,
    ann_sel: float | None = None,
    workers: int | None = None,
    available: tuple[str, ...] = ALL_STRATEGIES,
) -> list[StrategyEstimate]:
    """Estimate every available strategy for one query.

    ``qgram_sel``/``index_sel``/``ann_sel`` are measured candidate
    fractions from the stats catalog (see :mod:`repro.minidb.stats`);
    when missing, conservative defaults are used (q-grams keep 10% of
    rows, a grouped-key bucket holds ``1/sqrt(rows)`` of them, the
    embedding radius admits 10%).
    """
    rows = max(0, int(rows))
    qlen = max(1, int(query_len))
    plen = max(1.0, float(avg_plen))
    row_dp = qlen * plen  # DP cells for one candidate row
    if qgram_sel is None:
        qgram_sel = 0.10
    if index_sel is None:
        index_sel = 1.0 / max(1.0, float(rows) ** 0.5)
    if avg_posting is None:
        avg_posting = max(1.0, rows * qgram_sel)
    estimates = []
    if "naive" in available:
        estimates.append(
            StrategyEstimate(
                "naive", rows, rows * (row_dp + ROW_OVERHEAD), True
            )
        )
    if "qgram" in available:
        grams = max(1, qlen)  # positional q-grams per query ≈ tokens
        cand = rows * qgram_sel
        probe = grams * (PROBE_COST + avg_posting * POSTING_COST)
        estimates.append(
            StrategyEstimate(
                "qgram", cand, probe + cand * (row_dp + ROW_OVERHEAD), True
            )
        )
    if "index" in available:
        cand = rows * index_sel
        estimates.append(
            StrategyEstimate(
                "index",
                cand,
                PROBE_COST + cand * (row_dp + ROW_OVERHEAD),
                False,
            )
        )
    if "parallel" in available:
        shards = max(1, workers or 1)
        vector_cost = rows * row_dp / (VECTOR_SPEEDUP * min(shards, 16))
        estimates.append(
            StrategyEstimate(
                "parallel",
                rows * index_sel,  # exact matches ≈ bucket selectivity
                PARALLEL_OVERHEAD + vector_cost,
                True,
            )
        )
    if "ann" in available:
        if ann_sel is None:
            ann_sel = 0.10
        cand = rows * ann_sel
        # Survivors are verified by the vectorized banded kernel, not
        # the scalar UDF, so per-candidate DP is discounted like the
        # parallel path (single shard: no pool overhead to amortize).
        verify = cand * (row_dp / VECTOR_SPEEDUP + ROW_OVERHEAD)
        estimates.append(
            StrategyEstimate(
                "ann", cand, rows * ANN_SCAN_COST + verify, False
            )
        )
    return estimates


def choose(
    estimates: list[StrategyEstimate], *, allow_lossy: bool = False
) -> StrategyEstimate:
    """The cheapest (optionally lossless-only) estimate."""
    eligible = [
        e for e in estimates if allow_lossy or e.lossless
    ] or estimates
    return min(eligible, key=lambda e: e.est_cost)
