"""Inside-the-engine LexEQUAL acceleration (paper Section 6 future work).

The paper deployed LexEQUAL "outside the server" as a UDF and noted that
"the optimizer ... indicat[ed] that no optimization was done on the UDF
call in the query"; its future work is "an inside-the-engine
implementation ... with the expectation of further improving the runtime
efficiency".  This module is that implementation for the minidb engine:

* :func:`create_phonetic_accelerator` builds the auxiliary phonetic
  structures for one text column — per-row phoneme strings plus the
  candidate sources of :mod:`repro.core.sources` its method can use:
  q-gram postings (``method="qgram"``, lossless), grouped-key buckets
  (``method="index"``, fastest, with the Section 5.3 false-dismissal
  caveat) or the embedding prefilter (``method="ann"``, lossy through
  its admission radius); ``method="parallel"`` instead scans every row
  with the sharded process-pool executor (lossless);
* every method returns *verified* rows: candidates go through the one
  batch verifier, :meth:`repro.core.sources.PhonemeStore.verify`;
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
from repro.core.config import MatchConfig
from repro.core.matcher import LexEqualMatcher
from repro.core.sources import SOURCES, PhonemeStore, cost_inputs
from repro.errors import DatabaseError, TTPError
from repro.minidb.catalog import Database
from repro.phonetics.parse import PhonemeString

#: Version of :meth:`PhoneticAccelerator.snapshot_state`'s layout; a
#: snapshot in any other layout is rebuilt from the table.
SNAPSHOT_LAYOUT = 2

METHODS = ("qgram", "index", "parallel", "ann", "auto")


def _source_names(method: str, allow_lossy: bool) -> tuple[str, ...]:
    """The candidate sources a method can use.

    ``auto`` keeps only what its cost model may choose: the lossless
    q-gram source, plus the lossy ones under ``allow_lossy``.
    """
    if method == "auto":
        return ("qgram", "index", "ann") if allow_lossy else ("qgram",)
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
                f"'parallel', 'ann' or 'auto', got {method!r}"
            )
        self.db = db
        self.table_name = table_name
        self.column_name = column_name
        self.matcher = matcher
        self.method = method
        self.workers = workers
        #: auto only: whether the cost model may choose the lossy
        #: grouped-key and embedding sources (paper Section 5.3).
        self.allow_lossy = allow_lossy
        config = matcher.config
        self._sources = {
            name: SOURCES[name](config)
            for name in _source_names(method, allow_lossy)
        }
        #: Whether the sharded executor is a usable method.
        self._parallel = method == "parallel" or (
            method == "auto" and workers is not None
        )
        table = db.table(table_name)
        self._position = table.schema.position(column_name)
        self._phonemes = PhonemeStore(matcher.costs)
        self._plen_sum = 0
        #: Encoded table + executor for the parallel path, rebuilt
        #: lazily after table changes.
        self._table = None
        self._executor = None
        self._executor_stale = True
        #: Cost-model report of the last candidate_rowids call: the
        #: concrete method used and its StrategyEstimate (planner
        #: surfaces these in EXPLAIN).
        self.last_method: str | None = None
        self.last_choice = None
        if restore is not None and self._restore_state(restore):
            self._sync_with_table(table)
        else:
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
        if not phonemes:
            return
        self._phonemes[rowid] = phonemes
        self._plen_sum += len(phonemes)
        for source in self._sources.values():
            source.add(rowid, phonemes)
        self._table = None
        self._executor_stale = True

    def on_delete(self, rowid: int, row: tuple) -> None:
        phonemes = self._phonemes.pop(rowid, None)
        if phonemes is None:
            return
        self._plen_sum -= len(phonemes)
        for source in self._sources.values():
            source.remove(rowid)
        self._table = None
        self._executor_stale = True

    # ------------------------------------------------- snapshot/restore

    def snapshot_state(self) -> dict:
        """Picklable snapshot of every maintained structure.

        Persisted by the storage backend at checkpoint time so a
        reopened database attaches this accelerator without re-running
        TTP over the table (see :mod:`repro.storage.snapshots`).  Each
        source's state sits under its name; the storage backend moves
        the ``ann`` matrix to its own sidecar file.
        """
        from repro.storage import snapshots

        state: dict = {
            "layout": SNAPSHOT_LAYOUT,
            "method": self.method,
            "phonemes": dict(self._phonemes),
        }
        for name, source in self._sources.items():
            state[name] = source.state()
        if self._parallel and self._phonemes:
            state["encoded"] = snapshots.encoded_table_state(
                self._build_table()
            )
        return state

    def _restore_state(self, state: dict) -> bool:
        """Install a snapshot; False = incompatible, rebuild instead.

        A source whose state is missing or stale (e.g. a lost ``.ann``
        sidecar) is rebuilt from the snapshot's phoneme strings.
        """
        from repro.storage import snapshots

        if (
            state.get("layout") != SNAPSHOT_LAYOUT
            or state.get("method") != self.method
        ):
            return False
        self._phonemes.update(state["phonemes"])
        self._plen_sum = sum(map(len, self._phonemes.values()))
        config = self.matcher.config
        for name in self._sources:
            restored = None
            if state.get(name) is not None:
                restored = SOURCES[name].from_state(config, state[name])
            if restored is None:
                restored = SOURCES[name](config)
                restored.add_many(self._phonemes.items())
            self._sources[name] = restored
        if self._parallel and "encoded" in state:
            self._table = snapshots.restore_encoded_table(
                state["encoded"], self.matcher.costs
            )
        return True

    def _sync_with_table(self, table) -> None:
        """Delta-sync a restored snapshot with the live heap.

        The snapshot covers rows as of the last checkpoint; rows the
        WAL replayed after it are indexed here (TTP only on the delta)
        and rows deleted since are dropped.
        """
        live = {rowid for rowid, _row in table.scan()}
        stale = [rowid for rowid in self._phonemes if rowid not in live]
        for rowid in stale:
            self.on_delete(rowid, ())
        delta = 0
        for rowid, row in table.scan():
            if rowid not in self._phonemes:
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
        ``index`` and ``ann``.  The planner's UDF recheck then applies
        NULL, INLANGUAGES and degradation semantics to true matches
        only.  Returns None (declining, planner falls back to a scan)
        when the query value's language is unsupported or its phonemes
        cannot be encoded.
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
            config = config.with_threshold(float(threshold))
        method, choice = self._resolve_method(query_phonemes, config)
        self.last_method = method
        self.last_choice = choice
        if method == "naive":
            # The cost model priced the plain scan cheapest (tiny
            # table / unselective filter): decline, the planner's
            # SeqScan + UDF recheck *is* the chosen plan.
            obs.incr("accelerator.auto.chose_naive")
            return None
        rowids = self._matches(method, query_phonemes, config)
        if rowids is None and self.method == "auto":
            # Query not encodable for the chosen path: fall back to
            # the lossless q-gram source instead of declining.
            method = self.last_method = "qgram"
            rowids = self._matches(method, query_phonemes, config)
        if rowids is None:
            obs.incr(f"accelerator.{self.method}.declined")
            return None
        if self.method == "auto":
            obs.incr(f"accelerator.auto.chose_{method}")
        obs.observe(f"accelerator.{self.method}.candidates", len(rowids))
        return rowids

    def _matches(
        self, method: str, query_phonemes: PhonemeString, config: MatchConfig
    ) -> list[int] | None:
        """Verified matching rowids via ``method`` (None: not encodable)."""
        if method == "parallel":
            return self._parallel_matches(query_phonemes, config)
        keys = self._sources[method].candidates(query_phonemes, config)
        if keys is None:
            return None
        return self._phonemes.verify(query_phonemes, keys, config.threshold)

    def _resolve_method(self, query_phonemes: PhonemeString, config):
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
            available = ["naive", *self._sources]
            if self._parallel:
                available.append("parallel")
        else:
            available = [self.method]
        stats = self.db.stats.accelerator(self.table_name, self.column_name)
        rows = len(self._phonemes)
        avg_plen = (
            stats.avg_plen
            if stats is not None and stats.avg_plen
            else (self._plen_sum / rows if rows else 1.0)
        )
        estimates = cost.estimate_strategies(
            rows=rows,
            query_len=len(query_phonemes),
            avg_plen=avg_plen,
            qgram_sel=stats.qgram_sel if stats is not None else None,
            index_sel=stats.index_sel if stats is not None else None,
            ann_sel=stats.ann_sel if stats is not None else None,
            avg_posting=stats.avg_posting if stats is not None else None,
            workers=self.workers,
            available=tuple(available),
        )
        if self.method != "auto":
            return self.method, estimates[0] if estimates else None
        choice = cost.choose(estimates, allow_lossy=self.allow_lossy)
        return choice.strategy, choice

    def _parallel_matches(
        self, query_phonemes: PhonemeString, config: MatchConfig
    ) -> list[int] | None:
        """Exact matching rowids via the sharded executor (or None)."""
        executor = self._parallel_executor()
        if executor is None or len(executor.table) == 0:
            return []
        if executor.table.encode_query(query_phonemes) is None:
            return None  # out-of-table symbol: decline to the scan path
        ids, _dists = executor.match(query_phonemes, config.threshold)
        return [int(i) for i in ids]

    def _build_table(self):
        """The encoded CSR table over the current rows (cached).

        A snapshot restore pre-seeds the cache, so a reopened
        accelerator skips even the numpy re-encode until the table
        changes.
        """
        if self._table is None and self._phonemes:
            from repro.parallel import EncodedNameTable

            self._table = EncodedNameTable.from_rows(
                self.matcher.costs,
                [
                    (rowid, "", phonemes)
                    for rowid, phonemes in sorted(self._phonemes.items())
                ],
            )
        return self._table

    def _parallel_executor(self):
        """The parallel-path executor, rebuilt after table changes."""
        if self._executor_stale:
            if self._executor is not None:
                self._executor.close()
                self._executor = None
            if self._phonemes:
                from repro.parallel import ParallelMatchExecutor

                self._executor = ParallelMatchExecutor(
                    self._build_table(), workers=self.workers
                )
            self._executor_stale = False
        return self._executor

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

        config = self.matcher.config
        rows = len(self._phonemes)
        stats = AcceleratorStats(
            rows=rows,
            avg_plen=(self._plen_sum / rows) if rows else 0.0,
            threshold=config.threshold,
        )
        if rows:
            rng = random.Random(0x4C455861)  # stable across ANALYZE runs
            rowids = sorted(self._phonemes)
            probes = [
                self._phonemes[rng.choice(rowids)]
                for _ in range(min(sample, rows))
            ]
            stats.sample_size = len(probes)
            for name, value in cost_inputs(
                self._sources, probes, config
            ).items():
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
    process pool, default CPU count); ``method="ann"`` prefilters with
    the quantized articulatory-embedding index of
    :mod:`repro.matching.embed` (lossy through the admission radius,
    recall pinned by the quality harness); ``method="auto"`` lets the
    cost model pick a strategy per query from ANALYZE statistics
    (lossy index/ann only with ``allow_lossy``, parallel only with
    ``workers``).
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
