"""Inside-the-engine LexEQUAL acceleration (paper Section 6 future work).

The paper deployed LexEQUAL "outside the server" as a UDF and noted that
"the optimizer ... indicat[ed] that no optimization was done on the UDF
call in the query"; its future work is "an inside-the-engine
implementation ... with the expectation of further improving the runtime
efficiency".  This module is that implementation for the minidb engine:

* :func:`create_phonetic_accelerator` builds the auxiliary phonetic
  structures for one text column: a
  :class:`~repro.core.sources.KeyedPhonemes` of per-row phoneme strings
  plus the candidate sources its method can use — q-gram postings
  (``method="qgram"``, lossless), grouped-key buckets
  (``method="index"``, fastest, with the Section 5.3 false-dismissal
  caveat); ``method="parallel"`` instead scans every row with the
  sharded process-pool executor (lossless); ``method="auto"`` picks
  one per query by estimated cost, the system's one cost-based
  chooser;
* every method returns *verified* rows: candidates go through
  :meth:`~repro.core.sources.KeyedPhonemes.matches`, the same step the
  Strategy API runs;
* the structures register themselves as a table observer, so inserts
  and deletes keep them consistent automatically;
* the planner (see ``repro.minidb.planner._accelerated_candidates``)
  rewrites a ``col LexEQUAL 'query' THRESHOLD e`` predicate into a
  rowid scan against these structures, keeping the UDF as a recheck
  filter for NULL, INLANGUAGES and degradation semantics — no query
  changes required:

      create_phonetic_accelerator(db, "books", "author")
      db.execute("SELECT * FROM books WHERE author LEXEQUAL 'Nehru' "
                 "THRESHOLD 0.25")      # now uses the accelerator
"""

from __future__ import annotations

from repro import degrade, obs
from repro.core.matcher import LexEqualMatcher
from repro.core.sources import SOURCES, KeyedPhonemes
from repro.errors import DatabaseError, TTPError
from repro.minidb.catalog import Database
from repro.phonetics.parse import PhonemeString

#: Version of :meth:`PhoneticAccelerator.snapshot_state`'s layout; a
#: snapshot in any other layout is rebuilt from the table.
SNAPSHOT_LAYOUT = 2

METHODS = ("qgram", "index", "parallel", "auto")


def _source_names(method: str, allow_lossy: bool) -> tuple[str, ...]:
    """The candidate sources a method can use.

    ``auto`` keeps only what its cost model may choose: the lossless
    q-gram source, plus the lossy grouped-key one under ``allow_lossy``.
    """
    if method == "auto":
        return ("qgram", "index") if allow_lossy else ("qgram",)
    return (method,) if method in SOURCES else ()


class PhoneticAccelerator:
    """Auxiliary phonetic access structures for one ``table.column``.

    Do not construct directly — use :func:`create_phonetic_accelerator`,
    which also wires the observer and planner registration.
    """

    def __init__(
        self,
        db: Database,
        table_name: str,
        column_name: str,
        matcher: LexEqualMatcher,
        method: str,
        workers: int | None = None,
        allow_lossy: bool = False,
        restore: dict | None = None,
    ):
        if method not in METHODS:
            raise DatabaseError(
                f"accelerator method must be 'qgram', 'index', "
                f"'parallel' or 'auto', got {method!r}"
            )
        self.db = db
        self.table_name = table_name
        self.column_name = column_name
        self.matcher = matcher
        self.method = method
        self.workers = workers
        #: auto only: whether the cost model may choose the lossy
        #: grouped-key source (paper Section 5.3).
        self.allow_lossy = allow_lossy
        #: The candidate sources this method can use.
        self._source_names = _source_names(method, allow_lossy)
        #: Whether the sharded executor is a usable method.
        self._parallel = method == "parallel" or (
            method == "auto" and workers is not None
        )
        table = db.table(table_name)
        self._position = table.schema.position(column_name)
        #: Phoneme strings by rowid, with the sources built over them.
        self.keyed = KeyedPhonemes(matcher.config, matcher.costs)
        #: The parallel path's executor, built on first use.
        self._executor = None
        #: Cost-model report of the last candidate_rowids call: the
        #: concrete method used and its StrategyEstimate (planner
        #: surfaces these in EXPLAIN).
        self.last_method: str | None = None
        self.last_choice = None
        if restore is not None and self._restore_state(restore):
            self._sync_with_table(table)
        else:
            for name in self._source_names:
                self.keyed.source(name)
            for rowid, row in table.scan():
                self.on_insert(rowid, row)

    # ----------------------------------------------------- maintenance

    def _phonemes_of_value(self, value) -> PhonemeString | None:
        if value is None:
            return None
        language = self.matcher.language_of(value)
        if language is None or not self.matcher.registry.supports(language):
            return None  # NORESOURCE rows are not indexed
        return self.matcher.registry.transform(str(value), language)

    def on_insert(self, rowid: int, row: tuple) -> None:
        phonemes = self._phonemes_of_value(row[self._position])
        if phonemes:
            self.keyed.add(rowid, phonemes)

    def on_delete(self, rowid: int, row: tuple) -> None:
        self.keyed.remove(rowid)

    # ------------------------------------------------- snapshot/restore

    def snapshot_state(self) -> dict:
        """Picklable snapshot of every maintained structure.

        Persisted by the storage backend at checkpoint time so a
        reopened database attaches this accelerator without re-running
        TTP over the table (see :mod:`repro.storage.snapshots`).  Each
        source's state sits under its name.
        """
        state: dict = {
            "layout": SNAPSHOT_LAYOUT,
            "method": self.method,
            "phonemes": dict(self.keyed.store),
        }
        for name in self._source_names:
            state[name] = self.keyed.source(name).state()
        return state

    def _restore_state(self, state: dict) -> bool:
        """Install a snapshot; False = incompatible, rebuild instead.

        A source whose state is missing or stale is rebuilt from the
        snapshot's phoneme strings.  Entries for sources this
        accelerator does not use are ignored: an ``"encoded"`` parallel
        table or an ``"ann"`` embedding matrix stored by older versions
        (the executor gathers its table from the restored store).
        """
        if (
            state.get("layout") != SNAPSHOT_LAYOUT
            or state.get("method") != self.method
        ):
            return False
        self.keyed.load(
            state["phonemes"],
            {name: state.get(name) for name in self._source_names},
        )
        return True

    def _sync_with_table(self, table) -> None:
        """Delta-sync a restored snapshot with the live heap.

        The snapshot covers rows as of the last checkpoint; rows the
        WAL replayed after it are indexed here (TTP only on the delta)
        and rows deleted since are dropped.
        """
        store = self.keyed.store
        live = {rowid for rowid, _row in table.scan()}
        stale = [rowid for rowid in store if rowid not in live]
        for rowid in stale:
            self.on_delete(rowid, ())
        delta = 0
        for rowid, row in table.scan():
            if rowid not in store:
                self.on_insert(rowid, row)
                delta += 1
        if stale or delta:
            obs.incr("accelerator.restore.delta_rows", len(stale) + delta)

    # --------------------------------------------------------- planning

    def candidate_rowids(
        self,
        value,
        threshold: float | None,
        languages: tuple[str, ...] = (),
    ) -> list[int] | None:
        """Matching rowids for ``column LexEQUAL value THRESHOLD t``.

        Every method returns verified rows: the chosen candidate source
        (or, for ``parallel``, the sharded scan) feeds the one batch
        verifier, so the list is exactly the matching rows for
        ``qgram`` and ``parallel`` and a subset of them for the lossy
        ``index``.  The planner's UDF recheck then applies NULL,
        INLANGUAGES and degradation semantics to true matches only.
        Returns None (declining, planner falls back to a scan) when the
        query value cannot be converted to phonemes.
        """
        obs.incr(f"accelerator.{self.method}.calls")
        try:
            query_phonemes = self._phonemes_of_value(value)
        except TTPError as exc:
            # Transient failure converting the *query* value: under a
            # degradation context the accelerator declines (planner
            # falls back to a scan whose UDF recheck degrades per row);
            # outside one the failure propagates unchanged.
            if not degrade.record(getattr(exc, "language", None)):
                raise
            query_phonemes = None
        if not query_phonemes:
            obs.incr(f"accelerator.{self.method}.declined")
            return None
        config = self.matcher.config
        if threshold is not None:
            # with_threshold rejects a THRESHOLD outside [0, 1].
            config = config.with_threshold(float(threshold))
        threshold = config.threshold
        method, choice = self._resolve_method(query_phonemes)
        self.last_method = method
        self.last_choice = choice
        if method == "naive":
            # The cost model priced the plain scan cheapest (tiny
            # table / unselective filter): decline, the planner's
            # SeqScan + UDF recheck *is* the chosen plan.
            obs.incr("accelerator.auto.chose_naive")
            return None
        if method == "parallel":
            if self._executor is None:
                self._executor = self.keyed.executor(self.workers)
            rowids = self._executor.match(query_phonemes, threshold)[0]
            rowids = rowids.tolist()
        else:
            rowids, _ = self.keyed.matches(method, query_phonemes, threshold)
        if self.method == "auto":
            obs.incr(f"accelerator.auto.chose_{method}")
        obs.observe(f"accelerator.{self.method}.candidates", len(rowids))
        return rowids

    def _resolve_method(self, query_phonemes: PhonemeString):
        """The concrete method for this query, with its cost estimate.

        Fixed-method accelerators still get an estimate (for EXPLAIN's
        est_rows/est_cost); ``method="auto"`` additionally *chooses*:
        statistics from the last ANALYZE feed
        :func:`repro.minidb.cost.estimate_strategies`, and the cheapest
        eligible strategy wins.  Lossless strategies only, unless the
        accelerator was created with ``allow_lossy=True``.
        """
        from repro.minidb import cost

        if self.method == "auto":
            available = ["naive", *self._source_names]
            if self._parallel:
                available.append("parallel")
        else:
            available = [self.method]
        stats = self.db.stats.accelerator(self.table_name, self.column_name)
        rows = len(self.keyed.store)
        avg_plen = (
            stats.avg_plen
            if stats is not None and stats.avg_plen
            else (self.keyed.plen_sum / rows if rows else 1.0)
        )
        estimates = cost.estimate_strategies(
            rows=rows,
            query_len=len(query_phonemes),
            avg_plen=avg_plen,
            qgram_sel=stats.qgram_sel if stats is not None else None,
            index_sel=stats.index_sel if stats is not None else None,
            avg_posting=stats.avg_posting if stats is not None else None,
            workers=self.workers,
            available=tuple(available),
        )
        if self.method != "auto":
            return self.method, estimates[0] if estimates else None
        choice = cost.choose(estimates, allow_lossy=self.allow_lossy)
        return choice.strategy, choice

    # ------------------------------------------------------- statistics

    def collect_stats(self, sample: int = 32):
        """Row and sampled-selectivity statistics for ANALYZE.

        Selectivities are measured, not modelled: up to ``sample``
        stored phoneme strings (seeded choice, reproducible) probe every
        maintained candidate source, and the mean candidate fraction is
        recorded.  That grounds the cost model in this lexicon's actual
        phonology rather than textbook constants.
        """
        import random

        from repro.minidb.stats import AcceleratorStats

        store = self.keyed.store
        rows = len(store)
        stats = AcceleratorStats(
            rows=rows,
            avg_plen=(self.keyed.plen_sum / rows) if rows else 0.0,
            threshold=self.matcher.config.threshold,
        )
        if rows:
            rng = random.Random(0x4C455861)  # stable across ANALYZE runs
            rowids = sorted(store)
            probes = [
                store[rng.choice(rowids)] for _ in range(min(sample, rows))
            ]
            stats.sample_size = len(probes)
            inputs = self.keyed.cost_inputs(self._source_names, probes)
            for name, value in inputs.items():
                setattr(stats, name, value)
        return stats

    def drop(self) -> None:
        """Detach from the database (stop maintenance and planning)."""
        self.db.remove_observer(self.table_name, self.observer_handle)
        self.db.register_accelerator(
            self.table_name, self.column_name, None
        )
        if self._executor is not None:
            self._executor.close()
            self._executor = None

    #: Set by create_phonetic_accelerator (the observer is the object
    #: itself; kept explicit for drop()).
    observer_handle: "PhoneticAccelerator"


def create_phonetic_accelerator(
    db: Database,
    table_name: str,
    column_name: str,
    matcher: LexEqualMatcher | None = None,
    method: str = "qgram",
    workers: int | None = None,
    allow_lossy: bool = False,
    restore: dict | None = None,
) -> PhoneticAccelerator:
    """Build and register phonetic acceleration for ``table.column``.

    ``method="qgram"`` (default) gives Table 2 behaviour with zero
    result change; ``method="index"`` gives Table 3 behaviour (fastest,
    may false-dismiss); ``method="parallel"`` evaluates predicates with
    the sharded banded-kernel executor (lossless; ``workers`` sizes its
    process pool, default CPU count); ``method="auto"`` lets the cost
    model pick a strategy per query from ANALYZE statistics (lossy
    index only with ``allow_lossy``, parallel only with ``workers``).
    Also installs the LexEQUAL UDF family if the database does not have
    it yet.

    ``restore`` (storage recovery path) installs a snapshot produced by
    :meth:`PhoneticAccelerator.snapshot_state` instead of scanning the
    table; on a persistent database the accelerator also registers its
    snapshot artifact and manifest entry so reopening the data dir
    re-attaches it automatically.
    """
    matcher = matcher or LexEqualMatcher()
    if not db.has_udf("lexequal"):
        from repro.core.integration import install_lexequal

        install_lexequal(db, matcher)
    accelerator = PhoneticAccelerator(
        db,
        table_name,
        column_name,
        matcher,
        method,
        workers=workers,
        allow_lossy=allow_lossy,
        restore=restore,
    )
    accelerator.observer_handle = accelerator
    db.add_observer(table_name, accelerator)
    db.register_accelerator(table_name, column_name, accelerator)
    if db.storage.persistent:
        artifact = f"accel_{table_name.lower()}_{column_name.lower()}"
        db.storage.register_artifact(artifact, accelerator.snapshot_state)
        db.storage.register_accelerator_meta(
            {
                "table": table_name.lower(),
                "column": column_name.lower(),
                "method": method,
                "workers": workers,
                "allow_lossy": allow_lossy,
                "artifact": artifact,
            }
        )
    return accelerator
