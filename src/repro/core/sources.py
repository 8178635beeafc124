"""Candidate sources, the one verifier, and the per-key state around them
(paper Section 5).

Every filtered LexEQUAL evaluation is two steps: a candidate source
narrows the stored strings to candidate keys, then
:meth:`PhonemeStore.verify` keeps those within the per-pair budget
``threshold * min(|q|, |c|)`` using the banded batch kernel over the
code columns the store encoded once, at insert, in the one code space
:data:`~repro.phonetics.inventory.SYMBOL_CODES`.  The sources are:

* :class:`QGramSource` — positional q-gram postings with the length,
  count and position filters of Figure 14 (lossless);
* :class:`GroupedKeySource` — the grouped phoneme string identifier of
  Figure 15 (may false-dismiss).

:class:`KeyedPhonemes` holds one store and the sources built over it,
and runs the pipeline in one place (:meth:`KeyedPhonemes.matches`).
The SQL accelerator (:mod:`repro.core.engine`, keyed by heap rowid) and
the Strategy API's :class:`~repro.core.strategies.NameCatalog` (keyed
by record id) each hold one.  A source's ``state``/``from_state`` pair
is the LEXSNAP codec, and ``selectivity`` is what ANALYZE feeds the
cost model the ``auto`` accelerator chooses with.
"""

from __future__ import annotations

import abc
import functools
import math
from array import array
from collections.abc import Iterable

from repro import obs
from repro.core.config import MatchConfig
from repro.errors import PhonemeError
from repro.matching.costs import CostModel, count_classes
from repro.matching.qgrams import positional_qgrams, publish_filter_counts
from repro.phonetics.inventory import SYMBOL_CODES
from repro.phonetics.keys import grouped_key
from repro.phonetics.parse import PhonemeString

#: Stored-length sentinel: no string under the key.
ABSENT = -1

#: The code space's symbols, in code order.
SYMBOLS = tuple(SYMBOL_CODES)

#: Class-count column typecodes, narrowest first, each with the largest
#: count it holds; the column widens rather than let a count wrap.
_COUNT_LIMITS = {
    code: 2 ** (8 * array(code).itemsize) - 1 for code in "BHI"
}


def _grown(column: array, n: int, minimum: int = 4) -> array:
    """A copy of ``column[:n]`` with doubled (at least ``minimum``)
    capacity."""
    capacity = max(2 * len(column), minimum)
    grown = array(column.typecode, bytes(capacity * column.itemsize))
    grown[:n] = column[:n]
    return grown


def _covering(lengths: array, key: int) -> array:
    """A copy of a key-indexed length column with room for ``key``, at
    least doubled; new slots are :data:`ABSENT`."""
    grown = array("i", [ABSENT]) * max(2 * len(lengths), key + 1)
    grown[: len(lengths)] = lengths
    return grown


def _widened(counts: array, top: int) -> array:
    """A copy of ``counts`` in the narrowest count type holding
    ``top``."""
    code = next(c for c, limit in _COUNT_LIMITS.items() if top <= limit)
    return array(code, counts)


@functools.lru_cache(maxsize=8)
def _encoded_costs(costs: CostModel):
    """The batch kernel's cost tables, indexed by :data:`SYMBOL_CODES`."""
    from repro.matching.batch import EncodedCosts

    return EncodedCosts(costs, SYMBOLS)


def _encode(phonemes: PhonemeString) -> bytes:
    """Phoneme string -> one code byte per phoneme; raises
    :class:`~repro.errors.PhonemeError` for a symbol outside the
    inventory."""
    try:
        return bytes(map(SYMBOL_CODES.__getitem__, phonemes))
    except KeyError as exc:
        raise PhonemeError(
            f"unknown phoneme symbol {exc.args[0]!r} (not in the inventory)"
        ) from None


def _gather(codes: array, begin, lengths):
    """The runs ``codes[begin[i] : begin[i] + lengths[i]]`` as one CSR:
    ``(uint8 codes, int64 offsets)``."""
    import numpy as np

    offsets = np.zeros(len(lengths) + 1, dtype=np.int64)
    np.cumsum(lengths, out=offsets[1:])
    index = np.repeat(begin - offsets[:-1], lengths)
    index += np.arange(offsets[-1])
    return np.frombuffer(codes, np.uint8)[index], offsets


class PhonemeStore:
    """Stored phoneme strings by key, encoded once, plus the one verifier.

    A small mapping (``[k] = v``, ``pop``, ``update``, ``items`` ...)
    whose every write goes through :meth:`_write`, which also encodes
    the string into columns: an append-only ``uint8`` code
    column, dense key-indexed start and length columns, where a length
    of :data:`ABSENT` marks a key with no string, and a dense
    key-indexed class-count column holding, per key, the string's number
    of symbols in each class of the batch kernel's count bound
    (:func:`~repro.matching.costs.count_classes`, :attr:`width` classes
    per key).  The count column is ``uint8`` and widens to a wider
    unsigned type the first time a count would not fit.  :meth:`verify`
    bounds candidates by their stored counts and gathers codes only for
    the survivors, and :meth:`export` gathers every live string for the
    parallel executor's table; nothing is re-encoded or recounted.
    :data:`SYMBOL_CODES` is the only code space: writing or querying a
    string with a symbol outside it raises
    :class:`~repro.errors.PhonemeError`.  Every accepted write bumps
    :attr:`writes`.  Building, writing and restoring a store never
    import numpy.

    Readers take no lock.  The one writer fills spare capacity beyond
    the published ``used``, writes the key's counts, then its start, and
    writes its length last; a re-set key is first marked absent.
    Growth, widening and compaction publish a fresh ``(codes, starts,
    lens, counts, used)`` tuple in one assignment and never resize an
    array in place (a reader may hold a view of it).  A re-set or popped
    string's bytes are dead; once they outnumber the live ones the
    columns are compacted.
    """

    def __init__(self, costs: CostModel):
        self.costs = costs
        self._strings: dict[int, PhonemeString] = {}
        self._classes = count_classes(costs, SYMBOLS)
        #: Classes per key in the count column.
        self.width = max(self._classes) + 1
        #: (codes, starts, lens, counts, used): code bytes past ``used``
        #: are spare.
        self._columns = (array("B"), array("q"), array("i"), array("B"), 0)
        self._dead = 0
        #: Bumped by every write: what a gathered copy is current as of.
        self.writes = 0

    # ------------------------------------------------------- mapping

    def __getitem__(self, key: int) -> PhonemeString:
        return self._strings[key]

    def __setitem__(self, key: int, phonemes: PhonemeString) -> None:
        self._write(key, phonemes)

    def __contains__(self, key: object) -> bool:
        return key in self._strings

    def __iter__(self):
        return iter(self._strings)

    def __len__(self) -> int:
        return len(self._strings)

    def keys(self):
        return self._strings.keys()

    def values(self):
        return self._strings.values()

    def items(self):
        return self._strings.items()

    def pop(self, key: int, *default):
        phonemes = self._strings.get(key)
        if phonemes is None:
            if default:
                return default[0]
            raise KeyError(key)
        self._write(key, None)
        return phonemes

    def update(self, strings) -> None:
        items = strings.items() if hasattr(strings, "items") else strings
        for key, phonemes in items:
            self._write(key, phonemes)

    # -------------------------------------------------------- writer

    def _write(self, key: int, phonemes: PhonemeString | None) -> None:
        """Store (or, for None, remove) one key's string, codes and
        class counts.  A string with a symbol outside the inventory
        raises :class:`~repro.errors.PhonemeError` and leaves the store
        as it was."""
        encoded = None if phonemes is None else _encode(phonemes)
        self.writes += 1
        codes, starts, lens, counts, used = self._columns
        if key < len(lens) and lens[key] != ABSENT:
            self._dead += lens[key]
            lens[key] = ABSENT  # readers skip the key until rewritten
        if encoded is None:
            self._strings.pop(key, None)
        else:
            self._strings[key] = phonemes
            width = self.width
            if key >= len(lens):
                lens = _covering(lens, key)
                starts = _grown(starts, len(starts), len(lens))
                counts = _grown(counts, len(counts), len(lens) * width)
            end = used + len(encoded)
            if end > len(codes):
                codes = _grown(codes, used, max(end, 64))
            row = [0] * width
            classes = self._classes
            for code in encoded:
                row[classes[code]] += 1
            limit = _COUNT_LIMITS[counts.typecode]
            if len(encoded) > limit and max(row) > limit:
                # Widen all of a fresh tuple: a reader of the old one
                # sees none of this write.
                counts = _widened(counts, max(row))
                starts, lens = starts[:], lens[:]
            counts[key * width : (key + 1) * width] = array(
                counts.typecode, row
            )
            codes[used:end] = array("B", encoded)
            starts[key] = used
            lens[key] = len(encoded)
            self._columns = (codes, starts, lens, counts, end)
        if 2 * self._dead > self._columns[4]:
            self._compact()

    def _compact(self) -> None:
        """Publish fresh columns holding only the live strings' bytes."""
        codes, starts, lens, counts, _used = self._columns
        fresh = array("B")
        fresh_starts = array("q", bytes(len(starts) * starts.itemsize))
        for key, length in enumerate(lens):
            if length >= 0:
                start = starts[key]
                fresh_starts[key] = len(fresh)
                fresh.extend(codes[start : start + length])
        self._columns = (
            fresh,
            fresh_starts,
            array("i", lens),
            counts[:],
            len(fresh),
        )
        self._dead = 0

    # -------------------------------------------------------- reader

    def _read(self, keys=None):
        """``(codes, keys, lengths, starts, counts)`` from one columns
        tuple, for ``keys`` (default: every key slot), dropping keys past
        the columns; ``counts`` holds one class-count row per key.  A key
        written since the tuple was published, or being rewritten, reads
        as :data:`ABSENT`."""
        import numpy as np

        codes, starts, lens, counts, used = self._columns
        lens = np.frombuffer(lens, np.intc)
        starts = np.frombuffer(starts, np.int64)
        if keys is None:
            keys = np.arange(len(lens))
        keys = keys[keys < len(lens)]
        clens = lens[keys]
        begin = starts[keys]
        rows = np.frombuffer(counts, counts.typecode).reshape(
            len(lens), self.width
        )[keys]
        # The writer writes counts, then the start, then the length, and
        # a rewrite of a non-empty string moves its start: a length and
        # a start read both before and after the counts agree only if
        # all three belong to one write.
        stale = clens != lens[keys]
        stale |= begin != starts[keys]
        stale |= (clens >= 0) & (begin + clens > used)
        clens[stale] = ABSENT
        return codes, keys, clens, begin, rows

    def export(self):
        """Every live string, gathered once, in key order: ``(keys,
        codes, offsets, counts)``, with ``codes`` one ``uint8`` CSR over
        ``offsets`` and ``counts`` the strings' class-count rows."""
        codes, keys, clens, begin, rows = self._read()
        live = clens >= 0
        flat, offsets = _gather(codes, begin[live], clens[live])
        return keys[live], flat, offsets, rows[live]

    def verify(
        self,
        query_phonemes: PhonemeString,
        keys: list[int],
        threshold: float,
    ) -> list[int]:
        """The ``keys`` whose phonemes match the query, in input order.

        A key matches when its clustered edit distance to the query is
        within ``threshold * min(|q|, |c|)``.  The batch kernel reads
        the stored columns in place: it applies the length filter and
        the class-count bound over the stored counts first, and gathers
        codes only for the keys that survive.  A query symbol outside
        the inventory raises :class:`~repro.errors.PhonemeError`.  A key
        deleted or being rewritten since its source listed it (readers
        take no lock) is skipped.
        """
        query = _encode(query_phonemes)
        if not keys:
            return []
        import numpy as np

        from repro.matching.batch import batch_edit_distances_within_runs

        codes, keys, clens, begin, rows = self._read(
            np.asarray(keys, np.int64)
        )
        live = clens >= 0
        clens = clens[live]
        distances = batch_edit_distances_within_runs(
            np.frombuffer(query, np.uint8),
            np.frombuffer(codes, np.uint8),
            begin[live],
            clens,
            _encoded_costs(self.costs),
            threshold * np.minimum(len(query), clens),
            class_counts=rows[live],
        )
        return keys[live][distances != math.inf].tolist()


def filter_tokens(phonemes: PhonemeString, config: MatchConfig) -> tuple:
    """Project a phoneme string into the q-gram domain (DESIGN.md §3):
    cluster ids, or the phonemes themselves."""
    if config.qgram_domain == "cluster":
        return config.clustering.map_string(phonemes)
    return tuple(phonemes)


class CandidateSource(abc.ABC):
    """Narrows stored keys to the candidates for one query."""

    #: Registry name; also the cost-model strategy it serves.
    name: str

    def __init__(self, config: MatchConfig):
        self.config = config

    @abc.abstractmethod
    def __len__(self) -> int:
        """Number of keys indexed."""

    @abc.abstractmethod
    def add(self, key: int, phonemes: PhonemeString) -> None:
        """Index one stored phoneme string."""

    @abc.abstractmethod
    def remove(self, key: int) -> None:
        """Forget one key (no-op if absent)."""

    @abc.abstractmethod
    def candidates(
        self, query_phonemes: PhonemeString, config: MatchConfig
    ) -> list[int]:
        """Sorted candidate keys."""

    @abc.abstractmethod
    def state(self) -> dict:
        """Picklable state for the LEXSNAP snapshot."""

    @classmethod
    @abc.abstractmethod
    def from_state(
        cls, config: MatchConfig, state: dict
    ) -> CandidateSource | None:
        """Rebuild from :meth:`state`; None means "rebuild from rows"."""

    def add_many(
        self, items: Iterable[tuple[int, PhonemeString]]
    ) -> None:
        for key, phonemes in items:
            self.add(key, phonemes)

    def selectivity(
        self, probes: list[PhonemeString], config: MatchConfig
    ) -> float | None:
        """Mean candidate fraction over ``probes`` (None: nothing to
        measure)."""
        rows = len(self)
        if not rows or not probes:
            return None
        total = sum(len(self.candidates(p, config)) for p in probes)
        return total / (len(probes) * rows)


class QGramSource(CandidateSource):
    """Positional q-gram postings with the Figure 14 filters (lossless).

    Postings are columns: per gram, a key array and a 1-based position
    array whose first ``n`` slots are live, plus a dense key-indexed
    token-length array (-1 for absent keys).  A query views each of its
    grams' columns as numpy arrays, masks them by position, ``bincount``s
    the surviving keys into pair counts, and applies the length and
    count filters to every counted key at once.  Keys so short that the
    count filter is vacuous (``count_filter_threshold <= 0``) pass on
    length alone, whether or not they share a gram: the short-string
    union of Gravano et al. (paper ref. [6]).

    The columns are stdlib ``array.array``s that numpy views without a
    copy, so building, inserting and restoring a snapshot never import
    numpy: a server restoring one does not pay numpy's import time
    before it can accept connections.

    Readers take no lock.  The one writer fills spare capacity beyond
    the published ``n`` and then publishes the gram's new ``(keys,
    positions, n)`` tuple in one dict assignment, and it writes a key's
    length before any of that key's postings.  No array is resized or
    compacted in place (a reader may hold a view of it): growth and
    ``remove`` publish fresh arrays.
    """

    name = "qgram"

    def __init__(self, config: MatchConfig):
        super().__init__(config)
        self._tokens: dict[int, tuple] = {}
        #: gram -> (keys, positions, n); slots past n are spare.
        self._columns: dict[tuple, tuple[array, array, int]] = {}
        self._lengths = array("i")
        self.posting_count = 0

    def __len__(self) -> int:
        return len(self._tokens)

    def add(self, key: int, phonemes: PhonemeString) -> None:
        tokens = filter_tokens(phonemes, self.config)
        self._tokens[key] = tokens
        if key >= len(self._lengths):
            self._lengths = _covering(self._lengths, key)
        self._lengths[key] = len(tokens)
        grams = positional_qgrams(tokens, self.config.q)
        columns = self._columns
        for gram in grams:
            column = columns.get(gram.gram)
            if column is None:
                keys, positions = _grown(array("q"), 0), _grown(array("i"), 0)
                n = 0
            else:
                keys, positions, n = column
                if n == len(keys):
                    keys, positions = _grown(keys, n), _grown(positions, n)
            keys[n] = key
            positions[n] = gram.pos
            columns[gram.gram] = (keys, positions, n + 1)
        self.posting_count += len(grams)

    def remove(self, key: int) -> None:
        import numpy as np

        tokens = self._tokens.pop(key, None)
        if tokens is None:
            return
        grams = positional_qgrams(tokens, self.config.q)
        for gram in {g.gram for g in grams}:
            keys, positions, n = self._columns[gram]
            keep = np.frombuffer(keys, np.int64, n) != key
            if not keep.any():
                del self._columns[gram]
                continue
            kept = np.frombuffer(keys, np.int64, n)[keep]
            self._columns[gram] = (
                array("q", kept.tobytes()),
                array("i", np.frombuffer(positions, np.intc, n)[keep].tobytes()),
                len(kept),
            )
        self._lengths[key] = -1
        self.posting_count -= len(grams)

    def avg_posting(self) -> float | None:
        """Mean posting-list length (a cost-model input)."""
        if not self._columns:
            return None
        return self.posting_count / len(self._columns)

    def candidates(
        self, query_phonemes: PhonemeString, config: MatchConfig
    ) -> list[int]:
        import numpy as np

        query_tokens = filter_tokens(query_phonemes, self.config)
        qlen = len(query_tokens)
        k = config.max_operations(qlen)
        q = self.config.q
        grams = positional_qgrams(query_tokens, q)
        hits = []
        postings = misses = 0
        for gram in grams:
            column = self._columns.get(gram.gram)
            if column is None:
                misses += 1
                continue
            keys, positions, n = column
            positions = np.frombuffer(positions, np.intc, n)
            near = np.abs(positions - gram.pos) <= k
            hits.append(np.frombuffer(keys, np.int64, n)[near])
            postings += n
        # Read after the postings, so it covers every key seen in them.
        lengths = np.frombuffer(self._lengths, np.intc)
        lo, hi = max(qlen - k, 0), qlen + k
        # Count filter: pairs >= count_filter_threshold(qlen, clen, k, q)
        # = max(qlen, clen) - slack.
        slack = 1 + (k - 1) * q
        pairs = np.concatenate(hits) if hits else np.empty(0, np.int64)
        counts = np.bincount(pairs)
        counted = np.flatnonzero(counts > 0)
        clens = lengths[counted]
        len_ok = (clens >= lo) & (clens <= hi)
        cnt_ok = len_ok & (counts[counted] >= np.maximum(clens, qlen) - slack)
        found = counted[cnt_ok]
        vacuous = 0
        if qlen <= slack and lo <= min(hi, slack):
            short = np.flatnonzero(
                (lengths >= lo) & (lengths <= min(hi, slack))
            )
            merged = np.union1d(found, short)
            vacuous = len(merged) - len(found)
            found = merged
        if obs.is_enabled():
            len_pass = int(len_ok.sum())
            cnt_pass = int(cnt_ok.sum())
            publish_filter_counts(
                len(pairs),
                postings - len(pairs),
                len_pass + vacuous,
                len(counted) - len_pass,
                cnt_pass + vacuous,
                len_pass - cnt_pass,
            )
            obs.incr("btree.probes", len(grams))
            if misses:
                obs.incr("btree.probe_misses", misses)
        return found.tolist()

    def state(self) -> dict:
        return {
            "tokens": dict(self._tokens),
            "lengths": array("i", self._lengths),
            "columns": {
                gram: (keys[:n], positions[:n])
                for gram, (keys, positions, n) in self._columns.items()
            },
        }

    @classmethod
    def from_state(
        cls, config: MatchConfig, state: dict
    ) -> QGramSource | None:
        """None for the pre-columnar ``{"tokens", "postings"}`` layout."""
        if "columns" not in state:
            return None
        source = cls(config)
        source._tokens = state["tokens"]
        source._lengths = state["lengths"]
        source._columns = {
            gram: (keys, positions, len(keys))
            for gram, (keys, positions) in state["columns"].items()
        }
        source.posting_count = sum(
            n for _keys, _positions, n in source._columns.values()
        )
        return source


class GroupedKeySource(CandidateSource):
    """Buckets by grouped phoneme string identifier (Figure 15).

    The fastest source, with the paper's caveat: only strings whose
    every phoneme falls in the query's clusters (at the same length) are
    reachable, so cross-cluster near-matches are false-dismissed.
    """

    name = "index"

    def __init__(self, config: MatchConfig):
        super().__init__(config)
        self._key_of: dict[int, int] = {}
        self._buckets: dict[int, list[int]] = {}

    def __len__(self) -> int:
        return len(self._key_of)

    def _grouped_key(self, phonemes: PhonemeString) -> int:
        return grouped_key(
            phonemes, self.config.clustering, mode=self.config.key_mode
        )

    def add(self, key: int, phonemes: PhonemeString) -> None:
        group = self._grouped_key(phonemes)
        self._key_of[key] = group
        self._buckets.setdefault(group, []).append(key)

    def remove(self, key: int) -> None:
        group = self._key_of.pop(key, None)
        if group is None:
            return
        bucket = self._buckets[group]
        bucket.remove(key)
        if not bucket:
            del self._buckets[group]

    def candidates(
        self, query_phonemes: PhonemeString, config: MatchConfig
    ) -> list[int]:
        bucket = self._buckets.get(self._grouped_key(query_phonemes), ())
        obs.incr("btree.probes")
        if not bucket:
            obs.incr("btree.probe_misses")
        return sorted(bucket)

    def state(self) -> dict:
        return {"key_of": self._key_of}

    @classmethod
    def from_state(
        cls, config: MatchConfig, state: dict
    ) -> GroupedKeySource:
        source = cls(config)
        source._key_of = state["key_of"]
        for key, group in source._key_of.items():
            source._buckets.setdefault(group, []).append(key)
        return source


#: Source registry, by cost-model strategy name.
SOURCES: dict[str, type[CandidateSource]] = {
    source.name: source for source in (QGramSource, GroupedKeySource)
}


class KeyedPhonemes:
    """The stored phoneme strings by key, their candidate sources, and
    the one filter-then-verify step over them.

    :attr:`store` holds the strings (encoded once, at insert),
    :attr:`languages` the lowercase language of every key added with
    one, and each candidate source is built from the stored strings the
    first time :meth:`source` asks for it, then kept current by
    :meth:`add` and :meth:`remove`.  :meth:`matches` turns a source name
    and a query into verified keys; :meth:`executor` builds the sharded
    executor over the same strings.
    """

    def __init__(self, config: MatchConfig, costs: CostModel):
        self.config = config
        self.store = PhonemeStore(costs)
        #: key -> lowercase language (keys added without one have none).
        self.languages: dict[int, str] = {}
        #: Total stored phonemes, for the cost model's mean length.
        self.plen_sum = 0
        self._sources: dict[str, CandidateSource] = {}

    def add(
        self, key: int, phonemes: PhonemeString, language: str | None = None
    ) -> None:
        """Store one key's string (raising
        :class:`~repro.errors.PhonemeError`, with nothing stored, for a
        symbol outside the inventory) and index it in every built
        source."""
        self.store[key] = phonemes
        self.plen_sum += len(phonemes)
        if language is not None:
            self.languages[key] = language
        for source in self._sources.values():
            source.add(key, phonemes)

    def remove(self, key: int) -> None:
        """Forget one key (no-op if absent)."""
        phonemes = self.store.pop(key, None)
        if phonemes is None:
            return
        self.plen_sum -= len(phonemes)
        self.languages.pop(key, None)
        for source in self._sources.values():
            source.remove(key)

    def source(self, name: str) -> CandidateSource:
        """The candidate source ``name`` (see :data:`SOURCES`), built
        from the stored strings on first use."""
        source = self._sources.get(name)
        if source is None:
            source = SOURCES[name](self.config)
            source.add_many(self.store.items())
            self._sources[name] = source
        return source

    def load(self, strings: dict, states: dict) -> None:
        """Install snapshot ``strings`` and, per source name, its LEXSNAP
        state; a missing or stale state is rebuilt from the strings."""
        self.store.update(strings)
        self.plen_sum = sum(map(len, self.store.values()))
        for name, state in states.items():
            restored = None
            if state is not None:
                restored = SOURCES[name].from_state(self.config, state)
            if restored is None:
                self.source(name)
            else:
                self._sources[name] = restored

    def cost_inputs(self, names, probes: list[PhonemeString]) -> dict:
        """Measured :func:`repro.minidb.cost.estimate_strategies` inputs:
        ``<name>_sel`` per source in ``names`` from
        :meth:`CandidateSource.selectivity`, plus the q-gram postings'
        mean list length."""
        inputs = {
            f"{name}_sel": self.source(name).selectivity(probes, self.config)
            for name in names
        }
        if "qgram" in names:
            inputs["avg_posting"] = self.source("qgram").avg_posting()
        return inputs

    def matches(
        self,
        source: str,
        phonemes: PhonemeString,
        threshold: float,
        languages: tuple[str, ...] = (),
    ) -> tuple[list[int], int]:
        """Verified keys matching ``phonemes`` within ``threshold``, in
        key order, and how many candidates reached the verifier.

        The source's candidates, then, if ``languages`` is non-empty,
        only keys stored with one of them, then
        :meth:`PhonemeStore.verify`.  Exactly the matching keys for a
        lossless source, a subset of them for the grouped key.
        """
        config = self.config
        if threshold != config.threshold:
            config = config.with_threshold(threshold)
        keys = self.source(source).candidates(phonemes, config)
        if languages:
            wanted = {language.lower() for language in languages}
            keys = [key for key in keys if self.languages[key] in wanted]
        return self.store.verify(phonemes, keys, threshold), len(keys)

    def executor(self, workers: int | None = None):
        """A new :class:`~repro.parallel.ParallelMatchExecutor` over the
        stored strings and languages; it re-gathers its table after
        writes, and its caller closes it."""
        from repro.parallel import EncodedNameTable, ParallelMatchExecutor

        return ParallelMatchExecutor(
            EncodedNameTable.from_catalog(self), workers=workers
        )
