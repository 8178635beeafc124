"""The shared-memory-shippable encoded phoneme table.

:class:`EncodedNameTable` is the flat-array snapshot the parallel
executor shards: phoneme strings as one CSR int-code array pair, record
ids, and language codes.  Everything is numpy or plain tuples, and the
table publishes itself into one ``multiprocessing.shared_memory``
segment (:meth:`share`) that worker processes attach to by name
(:meth:`attach`) — no per-row Python objects and no table-sized pickles
ever cross a process boundary, under either start method.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from repro.matching.batch import EncodedCosts
from repro.matching.costs import CostModel
from repro.parallel import shm as shm_mod


@dataclass(frozen=True)
class SharedTableDescriptor:
    """The picklable handle a worker needs to attach a shared table."""

    segment: shm_mod.SegmentDescriptor
    languages: tuple[str, ...]
    min_indel: float


class _AttachedCosts:
    """Kernel-facing cost tables as zero-copy views over a segment.

    Quacks like :class:`~repro.matching.batch.EncodedCosts` for the
    batch kernels (``sub``/``ins``/``dele``/``min_indel``); it carries
    no ``CostModel`` and no symbol index, which workers never need —
    queries arrive pre-encoded.
    """

    __slots__ = ("sub", "ins", "dele", "min_indel")

    def __init__(self, sub, ins, dele, min_indel: float):
        self.sub = sub
        self.ins = ins
        self.dele = dele
        self.min_indel = min_indel


def _default_symbols(extra: Iterable[str] = ()) -> list[str]:
    """The one code space (plus any out-of-inventory extras after it).

    Using the whole inventory makes the code space query-independent:
    any string :func:`repro.phonetics.parse.parse_ipa` produces encodes
    without rebuilding the cost tables, to the same codes the verifier
    stores (:data:`repro.phonetics.inventory.SYMBOL_CODES`).
    """
    from repro.phonetics.inventory import SYMBOL_CODES

    symbols = list(SYMBOL_CODES)
    seen = set(symbols)
    for sym in extra:
        if sym not in seen:
            seen.add(sym)
            symbols.append(sym)
    return symbols


class EncodedNameTable:
    """An immutable encoded snapshot of ``(id, language, phonemes)`` rows."""

    def __init__(
        self,
        encoded: EncodedCosts,
        codes: np.ndarray,
        offsets: np.ndarray,
        ids: np.ndarray,
        lang_codes: np.ndarray,
        languages: tuple[str, ...],
    ):
        self.encoded = encoded
        self.codes = codes
        self.offsets = offsets
        self.ids = ids
        self.lang_codes = lang_codes
        self.languages = languages
        self.lens = np.diff(offsets)

    def __len__(self) -> int:
        return len(self.ids)

    @classmethod
    def from_rows(
        cls,
        costs: CostModel,
        rows: Iterable[tuple[int, str, tuple[str, ...]]],
        symbols: Iterable[str] | None = None,
    ) -> EncodedNameTable:
        """Build from ``(record_id, language, phoneme_tuple)`` rows."""
        rows = list(rows)
        if symbols is None:
            extra = {
                tok for _id, _lang, phonemes in rows for tok in phonemes
            }
            symbols = _default_symbols(extra)
        encoded = EncodedCosts(costs, list(symbols))
        lang_index: dict[str, int] = {}
        ids = np.empty(len(rows), dtype=np.int64)
        lang_codes = np.empty(len(rows), dtype=np.int16)
        offsets = np.zeros(len(rows) + 1, dtype=np.int64)
        chunks = []
        for pos, (record_id, language, phonemes) in enumerate(rows):
            ids[pos] = record_id
            language = language.lower()
            if language not in lang_index:
                lang_index[language] = len(lang_index)
            lang_codes[pos] = lang_index[language]
            chunk = encoded.encode(phonemes)
            chunks.append(chunk)
            offsets[pos + 1] = offsets[pos] + len(chunk)
        codes = (
            np.concatenate(chunks)
            if chunks
            else np.empty(0, dtype=np.int64)
        )
        return cls(
            encoded,
            codes,
            offsets,
            ids,
            lang_codes,
            tuple(lang_index),
        )

    @classmethod
    def from_catalog(cls, catalog) -> EncodedNameTable:
        """Snapshot a :class:`~repro.core.strategies.NameCatalog`."""
        rows = [
            (record.id, record.language, catalog.phonemes_of(record.id))
            for record in catalog.records()
        ]
        return cls.from_rows(catalog.matcher.costs, rows)

    # --------------------------------------------------- shared memory

    def share(
        self,
    ) -> tuple[shm_mod.SharedSegment, SharedTableDescriptor]:
        """Publish the table into one owned shared-memory segment.

        Returns the owning segment (whose ``unlink`` ends its life) and
        the small picklable descriptor workers attach with.
        """
        segment = shm_mod.SharedSegment(
            {
                "codes": self.codes,
                "offsets": self.offsets,
                "ids": self.ids,
                "lang_codes": self.lang_codes,
                "lens": self.lens,
                "sub": self.encoded.sub,
                "ins": self.encoded.ins,
                "dele": self.encoded.dele,
            }
        )
        descriptor = SharedTableDescriptor(
            segment.descriptor, self.languages, self.encoded.min_indel
        )
        return segment, descriptor

    @classmethod
    def attach(
        cls, descriptor: SharedTableDescriptor
    ) -> tuple[EncodedNameTable, shm_mod.AttachedSegment]:
        """Rebuild a zero-copy view of a shared table in this process.

        The returned table is read-only and kernel-complete (matching
        and joins work); ``encode_query`` does not — workers receive
        queries already encoded.  The caller owns the returned
        :class:`~repro.parallel.shm.AttachedSegment` and must keep it
        alive as long as the table is used.
        """
        attached = shm_mod.attach(descriptor.segment)
        arrays = attached.arrays
        table = cls.__new__(cls)
        table.encoded = _AttachedCosts(
            arrays["sub"],
            arrays["ins"],
            arrays["dele"],
            descriptor.min_indel,
        )
        table.codes = arrays["codes"]
        table.offsets = arrays["offsets"]
        table.ids = arrays["ids"]
        table.lang_codes = arrays["lang_codes"]
        table.lens = arrays["lens"]
        table.languages = descriptor.languages
        return table, attached

    def encode_query(self, phonemes) -> np.ndarray | None:
        """Query phonemes -> code vector; None if a symbol is unknown.

        Unknown symbols are possible only for cost-model symbol sets
        narrower than the inventory; callers fall back to the scalar
        kernels in that case.
        """
        index = self.encoded.index
        try:
            return np.fromiter(
                (index[t] for t in phonemes),
                dtype=np.int64,
                count=len(phonemes),
            )
        except KeyError:
            return None

    def language_codes_for(
        self, languages: tuple[str, ...]
    ) -> np.ndarray | None:
        """Allowed-language codes for an INLANGUAGES filter (None = all)."""
        if not languages:
            return None
        wanted = {lang.lower() for lang in languages}
        return np.fromiter(
            (
                code
                for code, name in enumerate(self.languages)
                if name in wanted
            ),
            dtype=np.int16,
        )
