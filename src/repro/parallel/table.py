"""The shared-memory-shippable encoded phoneme table.

:class:`EncodedNameTable` is the flat-array snapshot the parallel
executor shards: phoneme strings as one CSR int-code array pair, their
class-count rows (with each row's weighted total, the count bound's
input), record ids, and language codes, gathered from the columns a
:class:`~repro.core.sources.PhonemeStore` wrote at insert.
Everything is numpy or plain tuples, and the
table publishes itself into one ``multiprocessing.shared_memory``
segment (:meth:`share`) that worker processes attach to by name
(:meth:`attach`) — no per-row Python objects and no table-sized pickles
ever cross a process boundary, under either start method.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.sources import _encoded_costs
from repro.matching.batch import CostTables
from repro.parallel import shm as shm_mod


@dataclass(frozen=True)
class SharedTableDescriptor:
    """The picklable handle a worker needs to attach a shared table."""

    segment: shm_mod.SegmentDescriptor
    languages: tuple[str, ...]
    min_indel: float


class EncodedNameTable:
    """An immutable encoded snapshot of a phoneme store's rows.

    Rows are the store's keys, in key order: every stored string, since
    the store admits only strings in the code space.  A table gathered
    on the parent side also remembers its provenance: the ``store``, its
    key -> language map ``language_of`` (a key it lacks, or every key
    when it is None, has language ``""``) and the store's ``writes``
    count at the gather.  An attached worker view has none of these.
    """

    store = None
    language_of = None
    writes = -1

    def __len__(self) -> int:
        return len(self.ids)

    @classmethod
    def from_store(cls, store, language_of=None) -> EncodedNameTable:
        """Gather a :class:`~repro.core.sources.PhonemeStore`'s code
        columns, widened to int64 once, and its class-count rows, with
        no re-encoding or recounting."""
        writes = store.writes
        keys, codes, offsets, class_counts = store.export()
        names = (
            [language_of.get(key, "") for key in keys.tolist()]
            if language_of is not None
            else [""] * len(keys)
        )
        languages = tuple(dict.fromkeys(names))
        code_of = {name: code for code, name in enumerate(languages)}
        table = cls.__new__(cls)
        table.encoded = _encoded_costs(store.costs)
        table.codes = codes.astype(np.int64)
        table.offsets = offsets
        table.class_counts = class_counts
        table.class_totals = class_counts @ table.encoded.wc
        table.ids = keys.astype(np.int64)
        table.lang_codes = np.fromiter(
            map(code_of.__getitem__, names), np.int16, len(names)
        )
        table.languages = languages
        table.lens = np.diff(offsets)
        table.store = store
        table.language_of = language_of
        table.writes = writes
        return table

    @classmethod
    def from_catalog(cls, keyed) -> EncodedNameTable:
        """Gather a :class:`~repro.core.sources.KeyedPhonemes`' store
        and languages."""
        return cls.from_store(keyed.store, keyed.languages)

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
                "class_counts": self.class_counts,
                "class_totals": self.class_totals,
                "ids": self.ids,
                "lang_codes": self.lang_codes,
                "lens": self.lens,
                "sub": self.encoded.sub,
                "ins": self.encoded.ins,
                "dele": self.encoded.dele,
                "classes": self.encoded.classes,
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
        and joins work); workers receive queries already encoded.  The
        class counts and the partition are the parent's, read from the
        segment; its :class:`~repro.matching.batch.CostTables` derive
        the bound's weights from them with the same code as the
        parent's.  The caller owns the returned
        :class:`~repro.parallel.shm.AttachedSegment` and must keep it
        alive as long as the table is used.
        """
        attached = shm_mod.attach(descriptor.segment)
        arrays = attached.arrays
        table = cls.__new__(cls)
        table.encoded = CostTables(
            arrays["sub"],
            arrays["ins"],
            arrays["dele"],
            descriptor.min_indel,
            arrays["classes"],
        )
        table.codes = arrays["codes"]
        table.offsets = arrays["offsets"]
        table.class_counts = arrays["class_counts"]
        table.class_totals = arrays["class_totals"]
        table.ids = arrays["ids"]
        table.lang_codes = arrays["lang_codes"]
        table.lens = arrays["lens"]
        table.languages = descriptor.languages
        return table, attached

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
