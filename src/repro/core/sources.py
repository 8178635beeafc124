"""Candidate sources and the one verifier (paper Section 5).

Every filtered LexEQUAL evaluation is two steps: a candidate source
narrows the stored strings to candidate keys, then
:meth:`PhonemeStore.verify` keeps those within the per-pair budget
``threshold * min(|q|, |c|)`` using the banded batch kernel.  The SQL
accelerator (:mod:`repro.core.engine`) and the Strategy API
(:mod:`repro.core.strategies`) both run that pipeline over:

* :class:`QGramSource` — positional q-gram postings with the length,
  count and position filters of Figure 14 (lossless);
* :class:`GroupedKeySource` — the grouped phoneme string identifier of
  Figure 15 (may false-dismiss);
* :class:`AnnSource` — the quantized articulatory-embedding radius scan
  of :mod:`repro.matching.embed` (lossy at :data:`RADIUS_SCALE`).

Sources are keyed by ints (heap rowids or catalog record ids); their
``state``/``from_state`` pair is the LEXSNAP codec, and ``selectivity``
is what both ANALYZE and ``choose_strategy`` feed the cost model.
"""

from __future__ import annotations

import abc
import functools
import math
from collections.abc import Iterable

from repro import obs
from repro.core.config import MatchConfig
from repro.matching.costs import CostModel
from repro.matching.editdist import edit_distance_within
from repro.matching.qgrams import (
    count_filter_threshold,
    positional_qgrams,
    publish_filter_counts,
)
from repro.phonetics.keys import grouped_key
from repro.phonetics.parse import PhonemeString

#: Admission radius of the embedding prefilter per unit of
#: ``threshold * |query|``: the measured-recall operating point ("cost
#: <= 2") the quality harness pins.
RADIUS_SCALE = 2.0


@functools.lru_cache(maxsize=8)
def _encoded_costs(costs: CostModel):
    """The batch kernel's cost tables over the full phoneme inventory."""
    from repro.matching.batch import EncodedCosts
    from repro.phonetics.inventory import INVENTORY

    return EncodedCosts(costs, sorted(INVENTORY))


class PhonemeStore(dict):
    """Stored phoneme strings by key, plus the one verifier over them."""

    def __init__(self, costs: CostModel):
        super().__init__()
        self.costs = costs

    def verify(
        self,
        query_phonemes: PhonemeString,
        keys: list[int],
        threshold: float,
    ) -> list[int]:
        """The ``keys`` whose phonemes match the query, in input order.

        A key matches when its clustered edit distance to the query is
        within ``threshold * min(|q|, |c|)``.  Strings outside the
        inventory's code space (possible only for hand-written IPA)
        take the scalar kernel instead; decisions are identical.
        """
        if not keys:
            return []
        import numpy as np

        from repro.matching.batch import batch_edit_distances_within

        candidates = [self[key] for key in keys]
        qlen = len(query_phonemes)
        budgets = [threshold * min(qlen, len(c)) for c in candidates]
        try:
            distances = batch_edit_distances_within(
                query_phonemes,
                candidates,
                _encoded_costs(self.costs),
                np.asarray(budgets),
            ).tolist()
        except KeyError:
            obs.incr("matching.verify.scalar_fallbacks")
            return [
                key
                for key, cand, budget in zip(keys, candidates, budgets)
                if edit_distance_within(
                    query_phonemes, cand, budget, self.costs
                )
                is not None
            ]
        return [key for key, d in zip(keys, distances) if d != math.inf]


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
    ) -> list[int] | None:
        """Sorted candidate keys; None if the query cannot be encoded."""

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
        measure).  A query the source cannot encode counts as a scan."""
        rows = len(self)
        if not rows or not probes:
            return None
        total = 0
        for phonemes in probes:
            keys = self.candidates(phonemes, config)
            total += rows if keys is None else len(keys)
        return total / (len(probes) * rows)


class QGramSource(CandidateSource):
    """Positional q-gram postings with the Figure 14 filters (lossless).

    A query's grams probe the postings; position-compatible pairs are
    counted per key, and the length and count filters drop keys that
    cannot be within the query's operation bound ``k``.
    """

    name = "qgram"

    def __init__(self, config: MatchConfig):
        super().__init__(config)
        self._tokens: dict[int, tuple] = {}
        #: gram -> [(key, position), ...]
        self.postings: dict[tuple, list[tuple[int, int]]] = {}
        self.posting_count = 0

    def __len__(self) -> int:
        return len(self._tokens)

    def add(self, key: int, phonemes: PhonemeString) -> None:
        tokens = filter_tokens(phonemes, self.config)
        self._tokens[key] = tokens
        grams = positional_qgrams(tokens, self.config.q)
        for gram in grams:
            self.postings.setdefault(gram.gram, []).append((key, gram.pos))
        self.posting_count += len(grams)

    def remove(self, key: int) -> None:
        tokens = self._tokens.pop(key, None)
        if tokens is None:
            return
        grams = positional_qgrams(tokens, self.config.q)
        for gram in grams:
            entries = self.postings[gram.gram]
            entries.remove((key, gram.pos))
            if not entries:
                del self.postings[gram.gram]
        self.posting_count -= len(grams)

    def avg_posting(self) -> float | None:
        """Mean posting-list length (a cost-model input)."""
        if not self.postings:
            return None
        return self.posting_count / len(self.postings)

    def candidates(
        self, query_phonemes: PhonemeString, config: MatchConfig
    ) -> list[int]:
        query_tokens = filter_tokens(query_phonemes, self.config)
        k = config.max_operations(len(query_tokens))
        q = self.config.q
        pair_counts: dict[int, int] = {}
        pos_pass = pos_reject = 0  # published in one batch below
        probes = probe_misses = 0  # ditto
        for gram in positional_qgrams(query_tokens, q):
            postings = self.postings.get(gram.gram, ())
            probes += 1
            if not postings:
                probe_misses += 1
            for key, pos in postings:
                if abs(pos - gram.pos) <= k:
                    pos_pass += 1
                    pair_counts[key] = pair_counts.get(key, 0) + 1
                else:
                    pos_reject += 1
        qlen = len(query_tokens)
        candidates = []
        len_pass = len_reject = cnt_pass = cnt_reject = 0
        for key, count in pair_counts.items():
            clen = len(self._tokens[key])
            if abs(qlen - clen) > k:
                len_reject += 1
                continue
            len_pass += 1
            if count < count_filter_threshold(qlen, clen, k, q):
                cnt_reject += 1
                continue
            cnt_pass += 1
            candidates.append(key)
        publish_filter_counts(
            pos_pass, pos_reject, len_pass, len_reject, cnt_pass, cnt_reject
        )
        obs.incr("btree.probes", probes)
        if probe_misses:
            obs.incr("btree.probe_misses", probe_misses)
        candidates.sort()
        return candidates

    def state(self) -> dict:
        return {"tokens": self._tokens, "postings": self.postings}

    @classmethod
    def from_state(cls, config: MatchConfig, state: dict) -> QGramSource:
        source = cls(config)
        source._tokens = state["tokens"]
        source.postings = state["postings"]
        source.posting_count = sum(map(len, source.postings.values()))
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


class AnnSource(CandidateSource):
    """Quantized articulatory-embedding radius scan.

    Admits keys whose embedding lies within ``scale * threshold * |q|``
    of the query's, where ``scale`` is :data:`RADIUS_SCALE` (lossy,
    recall pinned by the quality harness) or, under ``lossless=True``,
    the embedding's proven lower-bound constant (no true match can be
    dismissed).  Added strings are embedded in one batch at the next
    query; strings outside the embedding's code space are always
    admitted, so they are never lost to the prefilter.
    """

    name = "ann"

    def __init__(self, config: MatchConfig):
        super().__init__(config)
        self.costs = config.cost_model()
        self._model = None
        self._index = None
        #: Matrix row -> key, and key -> live matrix row.
        self._keys: list[int] = []
        self._rows: dict[int, int] = {}
        self._pending: dict[int, PhonemeString] = {}
        self._unencodable: dict[int, PhonemeString] = {}

    def __len__(self) -> int:
        return len(self._rows) + len(self._pending) + len(self._unencodable)

    def add(self, key: int, phonemes: PhonemeString) -> None:
        self._pending[key] = phonemes

    def remove(self, key: int) -> None:
        if self._pending.pop(key, None) is not None:
            return
        if self._unencodable.pop(key, None) is not None:
            return
        row = self._rows.pop(key, None)
        if row is not None:
            self._index.delete(row)

    def _flush(self):
        """The embedding model, with every pending string indexed."""
        import numpy as np

        from repro.matching.embed import EmbeddingModel, QuantizedMatrixIndex

        if self._model is None:
            self._model = EmbeddingModel.for_costs(self.costs)
            self._index = QuantizedMatrixIndex(self._model.dim)
        model = self._model
        if not self._pending:
            return model
        keys, chunks = [], []
        for key, phonemes in self._pending.items():
            try:
                chunks.append(model.encoded.encode(phonemes))
            except KeyError:
                self._unencodable[key] = phonemes
                continue
            keys.append(key)
        self._pending = {}
        if keys:
            offsets = np.zeros(len(keys) + 1, dtype=np.int64)
            np.cumsum([len(c) for c in chunks], out=offsets[1:])
            vectors = model.encode_many(np.concatenate(chunks), offsets)
            start = self._index.extend(vectors)
            self._rows.update(
                (key, start + i) for i, key in enumerate(keys)
            )
            self._keys.extend(keys)
        return model

    def candidates(
        self,
        query_phonemes: PhonemeString,
        config: MatchConfig,
        *,
        lossless: bool = False,
    ) -> list[int] | None:
        model = self._flush()
        try:
            query_vector = model.encode(query_phonemes)
        except KeyError:
            return None
        scale = model.lower_bound_constant() if lossless else RADIUS_SCALE
        radius = scale * config.threshold * len(query_phonemes)
        rows = self._index.search(query_vector, radius)
        keys = [self._keys[row] for row in rows.tolist()]
        keys.extend(self._unencodable)
        keys.sort()
        return keys

    def state(self) -> dict:
        import numpy as np

        model = self._flush()
        state = self._index.state()
        state["symbols"] = list(model.encoded.index)
        state["rowids"] = np.asarray(self._keys, dtype=np.int64)
        state["unencodable"] = dict(self._unencodable)
        return state

    @classmethod
    def from_state(cls, config: MatchConfig, state: dict) -> AnnSource | None:
        """None when the recomputed model's width disagrees with the
        stored matrix (the cost model or embedding layout changed)."""
        from repro.matching.embed import EmbeddingModel, QuantizedMatrixIndex

        source = cls(config)
        model = EmbeddingModel.for_costs(source.costs, list(state["symbols"]))
        matrix = state["matrix"]
        if matrix.ndim != 2 or model.dim != matrix.shape[1]:
            return None
        index = QuantizedMatrixIndex.from_state(state)
        source._model = model
        source._index = index
        source._keys = [int(key) for key in state["rowids"]]
        source._rows = {
            key: row
            for row, key in enumerate(source._keys)
            if index.alive[row]
        }
        source._unencodable = dict(state.get("unencodable", {}))
        return source


#: Source registry, by cost-model strategy name.
SOURCES: dict[str, type[CandidateSource]] = {
    source.name: source for source in (QGramSource, GroupedKeySource, AnnSource)
}


def cost_inputs(
    sources: dict[str, CandidateSource],
    probes: list[PhonemeString],
    config: MatchConfig,
) -> dict:
    """Measured :func:`repro.minidb.cost.estimate_strategies` inputs.

    ``<name>_sel`` per source from :meth:`CandidateSource.selectivity`,
    plus the q-gram postings' mean list length.
    """
    inputs = {
        f"{name}_sel": source.selectivity(probes, config)
        for name, source in sources.items()
    }
    qgram = sources.get("qgram")
    if qgram is not None:
        inputs["avg_posting"] = qgram.avg_posting()
    return inputs
