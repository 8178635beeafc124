"""Seeded inputs: table rows, query streams and arrival schedules.

Everything the program under test receives is drawn here from the run's
``--seed``; the same seed gives the same rows, the same operation
sequence and the same arrival times.

Rows come from the paper's synthetic performance dataset (§5:
concatenations of two lexicon names within a language).  The generator
emits one block per language and pairs the same lexicon groups at the
same offset in every block, so the three names at one offset are
cross-script spellings of one name.  A table takes whole offsets, which
gives every workload genuine cross-script matches to find.
"""

from __future__ import annotations

import itertools
import random
from collections.abc import Iterator
from dataclasses import dataclass

from repro.data.generator import GeneratedName, generate_performance_dataset
from repro.data.lexicon import build_lexicon

LANGUAGES = ("english", "hindi", "tamil")

#: Offsets per language block drawn from the generator: pairs at lexicon
#: offsets 1..~10, enough for every table plus its cold queries and
#: inserts.  (The full 200k set would cost the harness ~60 MB of RSS,
#: which the peak-RSS metric would then report as the program's.)
POOL_OFFSETS = 8_000
#: Seed of the table sample, fixed across runs (see make_dataset).
TABLE_SEED = 20040314

#: Share of queries that are one-shot names absent from the table.
COLD_SHARE = 0.25
#: Share of queries carrying an INLANGUAGES clause.
INLANGUAGES_SHARE = 0.25


@dataclass(frozen=True)
class Query:
    """One LexEQUAL selection: the name and its INLANGUAGES set."""

    name: str
    languages: tuple[str, ...] = ()

    def sql(self, threshold: float) -> str:
        text = self.name.replace("'", "''")
        clause = ""
        if self.languages:
            clause = f" INLANGUAGES {{ {', '.join(self.languages)} }}"
        return (
            f"SELECT id FROM names WHERE name LEXEQUAL '{text}' "
            f"THRESHOLD {threshold}{clause}"
        )


@dataclass(frozen=True)
class Insert:
    """One single-row INSERT of a fresh name with a known id."""

    row_id: int
    name: str

    def sql(self) -> str:
        text = self.name.replace("'", "''")
        return f"INSERT INTO names VALUES ({self.row_id}, '{text}')"


@dataclass
class Dataset:
    """A table plus the seed's supply of names not in it."""

    rows: list[GeneratedName]
    #: Row indices of the cross-script spellings of one name.
    siblings: list[tuple[int, ...]]
    #: Names of the unused offsets, in seeded order.
    spare: Iterator[GeneratedName]

    def fresh(self) -> GeneratedName:
        """A name not in the table (one-shot until the supply wraps)."""
        return next(self.spare)


def _blocks(per_language: int) -> dict[str, list[GeneratedName]]:
    pool = generate_performance_dataset(
        build_lexicon(), per_language * len(LANGUAGES)
    )
    blocks = {lang: [g for g in pool if g.language == lang] for lang in LANGUAGES}
    sizes = {len(block) for block in blocks.values()}
    if sizes != {per_language}:
        raise RuntimeError(f"generator blocks are not aligned: {sizes}")
    return blocks


def make_dataset(seed: int, rows: int) -> Dataset:
    """A ``rows``-name table plus the seed's supply of fresh names.

    The table is the same for every seed, as the paper's dataset is: a
    fixed sample of whole offsets, all scripts of each.  The seed draws
    what callers do with it — the fresh names and, in the streams below,
    the query mix and the arrival times.  (Seeded tables of 1,000 rows
    differ enough in how many near-duplicate names they hold to move
    serve throughput by about a fifth from seed to seed.)
    """
    table_rng = random.Random(TABLE_SEED)
    blocks = _blocks(POOL_OFFSETS)
    offsets = list(range(POOL_OFFSETS))
    table_rng.shuffle(offsets)
    taken = -(-rows // len(LANGUAGES))
    if taken >= POOL_OFFSETS:
        raise ValueError(f"{rows} rows exceed the {POOL_OFFSETS}-offset pool")
    cells = [(o, lang) for o in offsets[:taken] for lang in LANGUAGES][:rows]
    table_rng.shuffle(cells)
    groups: dict[int, list[int]] = {}
    for index, (offset, _lang) in enumerate(cells):
        groups.setdefault(offset, []).append(index)
    rng = random.Random(seed * 1009 + 1)
    unused = offsets[taken:]
    rng.shuffle(unused)
    # Thousands of names: a run wraps around only on a much faster host.
    spare = itertools.cycle(
        [blocks[rng.choice(LANGUAGES)][offset] for offset in unused]
    )
    return Dataset(
        [blocks[lang][offset] for offset, lang in cells],
        [tuple(group) for group in groups.values() if len(group) > 1],
        spare,
    )


class QueryStream:
    """The seeded select mix: stored names plus cold one-shot names.

    Stored names are drawn uniformly, so a run's median rests on
    thousands of distinct queries rather than on the few names a skewed
    (e.g. Zipf) draw would repeat; their TTP conversion is cached by the
    table load, while a cold name misses every cache.
    """

    def __init__(self, seed: int, dataset: Dataset):
        self._rng = random.Random(seed * 1009 + 2)
        self._dataset = dataset

    def next(self) -> Query:
        rng = self._rng
        if rng.random() < COLD_SHARE:
            name = self._dataset.fresh()
        else:
            name = rng.choice(self._dataset.rows)
        languages: tuple[str, ...] = ()
        if rng.random() < INLANGUAGES_SHARE:
            other = rng.choice([lang for lang in LANGUAGES if lang != name.language])
            languages = tuple(sorted((name.language, other)))
        return Query(name.name, languages)


class MixedStream:
    """Selects from a :class:`QueryStream` with a share of INSERTs."""

    def __init__(
        self, seed: int, dataset: Dataset, insert_share: float, first_id: int
    ):
        self._rng = random.Random(seed * 1009 + 3)
        self._dataset = dataset
        self._queries = QueryStream(seed, dataset)
        self._insert_share = insert_share
        self._ids = itertools.count(first_id)

    def next(self) -> Query | Insert:
        if self._rng.random() < self._insert_share:
            return Insert(next(self._ids), self._dataset.fresh().name)
        return self._queries.next()


def paced_arrivals(rate: float, duration: float) -> list[float]:
    """Evenly spaced arrival offsets (seconds) in ``[0, duration)``.

    Seeded Poisson arrivals made the open-loop median latency, which
    includes queueing, depend on each seed's bursts: its quartile spread
    over ten seeds was 0.22-0.24, against 0.06 when paced.
    """
    return [i / rate for i in range(round(rate * duration))]
