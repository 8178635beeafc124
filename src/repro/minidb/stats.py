"""The statistics catalog: what ``ANALYZE`` collects, what the planner reads.

The paper's evaluation (Figs. 9–13) shows the best LexEQUAL execution
strategy flips with lexicon size, threshold and selectivity — so the
planner needs numbers, not a flag.  ``ANALYZE [table]`` walks each heap
once for table/column statistics and asks every registered phonetic
accelerator for *sampled* selectivities (the candidate fraction of
each candidate source it maintains) measured by probing it with a
seeded sample of its own stored phoneme strings.

Everything here is JSON-serializable, so the stats catalog persists
through the storage backend (``stats.json``) and survives restarts.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

from repro import obs


@dataclass
class ColumnStats:
    """Per-column statistics from one ANALYZE pass."""

    n_distinct: int = 0
    null_frac: float = 0.0
    avg_len: float = 0.0


@dataclass
class AcceleratorStats:
    """Phonetic-accelerator statistics for one ``table.column``.

    ``qgram_sel`` / ``index_sel`` / ``ann_sel`` are measured
    candidate-set fractions (candidates ÷ indexed rows), averaged over
    ``sample_size`` probe queries drawn from the stored strings; None
    when the corresponding candidate source is not maintained.
    ``avg_posting`` is the q-gram postings' mean list length.
    """

    rows: int = 0
    avg_plen: float = 0.0
    avg_posting: float | None = None
    qgram_sel: float | None = None
    index_sel: float | None = None
    ann_sel: float | None = None
    sample_size: int = 0
    threshold: float = 0.0


@dataclass
class TableStats:
    """One table's statistics."""

    name: str
    row_count: int = 0
    columns: dict[str, ColumnStats] = field(default_factory=dict)
    accelerated: dict[str, AcceleratorStats] = field(default_factory=dict)


class StatsCatalog:
    """All per-table statistics, keyed by lowercase table name."""

    def __init__(self) -> None:
        self._tables: dict[str, TableStats] = {}

    def __len__(self) -> int:
        return len(self._tables)

    def put(self, stats: TableStats) -> None:
        self._tables[stats.name.lower()] = stats

    def drop(self, table_name: str) -> None:
        self._tables.pop(table_name.lower(), None)

    def prune(self, keep) -> int:
        """Drop stats for tables not in ``keep``; returns the count.

        Recovery uses this: ``stats.json`` may predate a ``DROP TABLE``
        that only the WAL recorded, and stale stats for a vanished (or
        later recreated) table would skew the cost-based planner.
        """
        keep_keys = {name.lower() for name in keep}
        stale = [key for key in self._tables if key not in keep_keys]
        for key in stale:
            del self._tables[key]
        return len(stale)

    def table(self, table_name: str) -> TableStats | None:
        return self._tables.get(table_name.lower())

    def column(
        self, table_name: str, column_name: str
    ) -> ColumnStats | None:
        stats = self.table(table_name)
        if stats is None:
            return None
        return stats.columns.get(column_name.lower())

    def accelerator(
        self, table_name: str, column_name: str
    ) -> AcceleratorStats | None:
        stats = self.table(table_name)
        if stats is None:
            return None
        return stats.accelerated.get(column_name.lower())

    # -------------------------------------------------- serialization

    def to_dict(self) -> dict:
        return {
            "tables": {
                key: asdict(stats) for key, stats in self._tables.items()
            }
        }

    @classmethod
    def from_dict(cls, payload: dict | None) -> "StatsCatalog":
        catalog = cls()
        for key, raw in (payload or {}).get("tables", {}).items():
            stats = TableStats(
                name=raw.get("name", key),
                row_count=int(raw.get("row_count", 0)),
                columns={
                    col: ColumnStats(**cstats)
                    for col, cstats in raw.get("columns", {}).items()
                },
                accelerated={
                    col: _accelerator_stats(astats)
                    for col, astats in raw.get("accelerated", {}).items()
                },
            )
            catalog._tables[key] = stats
        return catalog


def _accelerator_stats(raw: dict) -> AcceleratorStats:
    """Stats from JSON, ignoring fields an older layout wrote."""
    known = AcceleratorStats.__dataclass_fields__
    return AcceleratorStats(
        **{name: value for name, value in raw.items() if name in known}
    )


def analyze_table(db, table_name: str, *, sample: int = 32) -> TableStats:
    """One ANALYZE pass over one table (heap scan + accelerator probes)."""
    table = db.table(table_name)
    schema = table.schema
    positions = range(len(schema.columns))
    distinct: list[set] = [set() for _ in positions]
    nulls = [0 for _ in positions]
    lengths = [0 for _ in positions]
    row_count = 0
    for _rowid, row in table.scan():
        row_count += 1
        for pos in positions:
            value = row[pos]
            if value is None:
                nulls[pos] += 1
                continue
            distinct[pos].add(value)
            lengths[pos] += len(str(value))
    stats = TableStats(name=table.name, row_count=row_count)
    for pos, column in enumerate(schema.columns):
        non_null = row_count - nulls[pos]
        stats.columns[column.name.lower()] = ColumnStats(
            n_distinct=len(distinct[pos]),
            null_frac=(nulls[pos] / row_count) if row_count else 0.0,
            avg_len=(lengths[pos] / non_null) if non_null else 0.0,
        )
        accelerator = db.accelerator_for(table.name, column.name)
        collect = getattr(accelerator, "collect_stats", None)
        if collect is not None:
            stats.accelerated[column.name.lower()] = collect(sample=sample)
    return stats


def analyze_database(
    db, table_name: str | None = None, *, sample: int = 32
) -> int:
    """Refresh ``db.stats`` for one table (or all); returns the count."""
    names = [table_name] if table_name else list(db.table_names())
    with obs.timed("minidb.analyze"):
        for name in names:
            db.stats.put(analyze_table(db, name, sample=sample))
    obs.incr("minidb.analyze.tables", len(names))
    return len(names)
