"""Articulatory-feature embeddings with a provable lower-bound contract.

PAPERS.md motivates a cheap *embedding tier* in front of the exact
clustered-edit-distance verifier: Ahmed et al. derive fixed-width
feature vectors from articulatory phonetics, and Symphonym shows that a
lossy-but-measured prefilter plus an exact verifier is the right
architecture for cross-script name matching at scale.  This module is
that tier: every phoneme string becomes a fixed ``DIM``-wide vector by
*pooling* per-phoneme articulatory features (the same weighted
manner/place/voicing and height/backness/rounding bundles that
:mod:`repro.phonetics.features` scores), and the L1 distance between two
pooled vectors provably never exceeds a constant multiple of their
Clustered Edit Distance.

Lower-bound contract
--------------------

Let ``v(p)`` be the (collapsed, see below) base vector of phoneme ``p``
and ``phi(s) = sum_i v(s_i) + pos(s)`` the pooled embedding, where
``pos(s)`` puts ``min(i, POS_CAP) * W_POS`` of *positional mass* on the
consonant or vowel mass dimension for the phoneme at index ``i``.  For
any single edit operation transforming ``s`` into ``s'``:

* substituting ``a -> b`` changes ``phi`` by at most
  ``|v(a) - v(b)|_1`` plus, when the two phonemes' classes differ,
  ``2 * POS_CAP * W_POS`` of migrated positional mass (positions of all
  other phonemes are unchanged);
* inserting or deleting ``p`` at index ``j`` changes the pooled sum by
  ``|v(p)|_1`` and the positional mass by at most ``POS_CAP * W_POS``
  (the phoneme's own capped mass ``min(j, POS_CAP)`` plus one unit for
  each of the at most ``POS_CAP - j`` later phonemes still under the
  cap — their total is ``<= POS_CAP`` for every ``j``).

:meth:`EmbeddingModel.lower_bound_constant` enumerates every operation
the cost model admits over the symbol table and returns::

    c = max( max_{p}      (|v(p)|_1 + POS_CAP*W_POS) / indel_cost(p),
             max_{a != b} (|v(a)-v(b)|_1 + class_delta) / sub_cost(a, b) )

Summing over the operations of an optimal edit script and applying the
triangle inequality for L1 gives, for **all** strings ``s, t``::

    |phi(s) - phi(t)|_1  <=  c * d_edit(s, t)

so a radius search at ``c * k`` around ``phi(q)`` can never dismiss a
candidate within edit distance ``k`` (the *lossless* configuration),
and a radius search at ``r * k`` for ``r < c`` is a lossy prefilter
whose recall the quality harness measures rather than assumes.

Zero-cost substitutions (``intra_cluster_cost=0`` reproduces Soundex)
would break the ratio, so symbols connected by a zero-cost substitution
are *collapsed* to one shared vector before the constant is computed —
a zero-cost edit then moves the embedding by exactly zero.

Quantization
------------

:class:`QuantizedMatrixIndex` stores ``round(clip(phi * scale))`` as an
``int8`` matrix.  Rounding perturbs each coordinate by at most 0.5 and
saturating clipping is a contraction, so for any two vectors::

    |q(x) - q(y)|_1  <=  scale * |x - y|_1 + DIM

Admitting a row when its quantized L1 distance is at most
``scale * radius + DIM`` therefore admits a *superset* of the rows the
float-space radius search would admit: quantization can widen the
candidate set but never costs recall.  The property suite checks both
inequalities on generated strings.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro import deadline, obs
from repro.errors import MatchConfigError
from repro.matching.batch import EncodedCosts
from repro.matching.costs import CostModel
from repro.phonetics.inventory import INVENTORY, SYMBOL_CODES, Manner

# Feature weights mirror repro.phonetics.features: manner dominates for
# consonants, height for vowels; the shared bookkeeping components
# (class, length, positional mass) are deliberately light so they sharpen
# the prefilter without inflating the lower-bound constant.
_W_MANNER = 0.45
_W_PLACE = 0.30
_W_VOICE = 0.15
_W_ASPIRATION = 0.10
_W_HEIGHT = 0.40
_W_BACKNESS = 0.30
_W_ROUNDED = 0.12
_W_LONG = 0.10
_W_VNASAL = 0.08
_W_CLASS = 0.25
_W_LEN = 0.08
#: Weight of one unit of capped positional mass.
W_POS = 0.04
#: Positions at and beyond the cap contribute the same mass — the cap is
#: what keeps a single insertion's ripple effect bounded (see module
#: docstring) instead of linear in the string length.
POS_CAP = 4

#: Weight of one phoneme's cluster-histogram component.  Chosen so the
#: *common* operations stay within a factor-2 embedding motion: an
#: intra-cluster substitution moves the histogram by 0 and a cross-
#: cluster one by ``2 * W_HIST = 1.0 <= 2 * vowel_cross_cost``; an indel
#: moves it by ``W_HIST = 0.5 <= 2 * weak_indel_cost``.  The histogram
#: is the linearly-scaling discrimination signal: unrelated strings of
#: length ``n`` differ by O(n) in histogram L1, matching how the edit
#: budget grows, where the pooled articulatory dims alone cancel like a
#: random walk.
W_HIST = 0.5

_MANNERS = tuple(Manner)

#: Width of the fixed articulatory prefix: class pair + length + two
#: positional-mass dims + manner one-hot + place/voice/aspiration + the
#: five vowel features.  A model's full width is ``DIM`` plus one
#: cluster-histogram dimension per phoneme group (``EmbeddingModel.dim``).
DIM = 5 + len(_MANNERS) + 3 + 5

# Dimension indices.
_D_CONS = 0
_D_VOWEL = 1
_D_LEN = 2
_D_POS_CONS = 3
_D_POS_VOWEL = 4
_D_MANNER0 = 5
_D_PLACE = _D_MANNER0 + len(_MANNERS)
_D_VOICE = _D_PLACE + 1
_D_ASP = _D_VOICE + 1
_D_HEIGHT = _D_ASP + 1
_D_BACK = _D_HEIGHT + 1
_D_ROUND = _D_BACK + 1
_D_LONG = _D_ROUND + 1
_D_VNASAL = _D_LONG + 1

#: Default quantizer scale: coarse enough that realistic name vectors
#: stay inside int8 (saturation is correctness-safe either way, see the
#: module docstring), fine enough that the DIM rounding slack stays well
#: under one scaled cost unit of admission radius.
QUANT_SCALE = 32.0

#: Row block for the chunked int8 scan (mirrors ``PADDED_BLOCK``: big
#: enough to amortize numpy dispatch, small enough to poll deadlines).
EMBED_BLOCK = 8192


def _base_vector(symbol: str) -> np.ndarray:
    """The uncollapsed per-phoneme feature vector.

    Symbols outside the inventory get only the length component: all
    unknowns share one vector, so substituting one unknown for another
    moves the embedding by zero — never *more* than the (positive)
    substitution cost, which is all the lower bound needs.
    """
    vec = np.zeros(DIM, dtype=np.float64)
    vec[_D_LEN] = _W_LEN
    phoneme = INVENTORY.get(symbol)
    if phoneme is None:
        return vec
    if phoneme.is_consonant:
        from repro.phonetics.features import _PLACE_ORDER, _PLACE_SPAN

        vec[_D_CONS] = _W_CLASS
        vec[_D_MANNER0 + _MANNERS.index(phoneme.manner)] = _W_MANNER
        vec[_D_PLACE] = (
            _W_PLACE * _PLACE_ORDER[phoneme.place] / _PLACE_SPAN
        )
        if phoneme.voiced:
            vec[_D_VOICE] = _W_VOICE
        if phoneme.aspirated:
            vec[_D_ASP] = _W_ASPIRATION
    else:
        from repro.phonetics.features import _HEIGHT_SPAN

        vec[_D_VOWEL] = _W_CLASS
        vec[_D_HEIGHT] = _W_HEIGHT * phoneme.height.value / _HEIGHT_SPAN
        vec[_D_BACK] = _W_BACKNESS * phoneme.backness.value / 2.0
        if phoneme.rounded:
            vec[_D_ROUND] = _W_ROUNDED
        if phoneme.long:
            vec[_D_LONG] = _W_LONG
        if phoneme.nasal:
            vec[_D_VNASAL] = _W_VNASAL
    return vec


def _phoneme_class(symbol: str) -> int:
    """+1 consonant, -1 vowel, 0 out-of-inventory (its own class)."""
    phoneme = INVENTORY.get(symbol)
    if phoneme is None:
        return 0
    return 1 if phoneme.is_consonant else -1


class EmbeddingModel:
    """Pooled articulatory embeddings over one cost model's symbol table.

    Built from the same :class:`~repro.matching.batch.EncodedCosts` the
    banded verifier uses, so embedding code space and DP code space are
    identical — a CSR ``codes``/``offsets`` table encodes into an
    ``(N, DIM)`` matrix with one :func:`np.add.reduceat` pass.
    """

    def __init__(self, encoded: EncodedCosts):
        self.encoded = encoded
        symbols = sorted(encoded.index, key=encoded.index.__getitem__)
        self.symbols = tuple(symbols)
        size = len(symbols)
        groups = self._symbol_groups(encoded, symbols)
        n_groups = (max(groups) + 1) if groups else 0
        self.dim = DIM + n_groups
        vectors = np.zeros((size, self.dim), dtype=np.float64)
        for pos, sym in enumerate(symbols):
            vectors[pos, :DIM] = _base_vector(sym)
            vectors[pos, DIM + groups[pos]] = W_HIST
        classes = np.fromiter(
            (_phoneme_class(sym) for sym in symbols),
            dtype=np.int8,
            count=size,
        )
        # Collapse symbols connected by zero-cost substitutions onto one
        # representative vector (and class), so free edits move the
        # embedding by exactly zero — required by the lower bound.
        root = self._zero_cost_roots(encoded.sub)
        self.vectors = vectors[root]
        self.classes = classes[root]
        self._constant: float | None = None

    @staticmethod
    def _symbol_groups(
        encoded: EncodedCosts, symbols: Sequence[str]
    ) -> list[int]:
        """Histogram group per symbol: its phoneme cluster when the cost
        model has one, its own singleton group otherwise."""
        clustering = getattr(encoded.costs, "clustering", None)
        keys: dict[object, int] = {}
        groups = []
        for sym in symbols:
            key: object = sym
            if clustering is not None:
                try:
                    key = ("cluster", clustering.cluster_id(sym))
                except (KeyError, ValueError):
                    key = sym
            groups.append(keys.setdefault(key, len(keys)))
        return groups

    @classmethod
    def for_costs(
        cls, costs: CostModel, symbols: Sequence[str] | None = None
    ) -> EmbeddingModel:
        """Build from a bare cost model (full inventory by default)."""
        if symbols is None:
            symbols = list(SYMBOL_CODES)
        return cls(EncodedCosts(costs, list(symbols)))

    @staticmethod
    def _zero_cost_roots(sub: np.ndarray) -> np.ndarray:
        """Union-find representative per code over zero-cost sub pairs."""
        size = sub.shape[0]
        parent = np.arange(size)

        def find(i: int) -> int:
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        zero_a, zero_b = np.nonzero(
            (sub <= 0.0) & ~np.eye(size, dtype=bool)
        )
        for a, b in zip(zero_a.tolist(), zero_b.tolist()):
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[max(ra, rb)] = min(ra, rb)
        return np.fromiter(
            (find(i) for i in range(size)), dtype=np.int64, count=size
        )

    # ------------------------------------------------------------ encode

    def encode_codes(self, codes: np.ndarray) -> np.ndarray:
        """Embed one code vector (see :meth:`EncodedCosts.encode`)."""
        offsets = np.array([0, len(codes)], dtype=np.int64)
        return self.encode_many(codes, offsets)[0]

    def encode(self, phonemes: Sequence[str]) -> np.ndarray:
        """Embed one phoneme string (symbols must be known)."""
        return self.encode_codes(self.encoded.encode(phonemes))

    def encode_many(
        self, codes: np.ndarray, offsets: np.ndarray
    ) -> np.ndarray:
        """Embed a CSR table of phoneme strings into ``(N, DIM)``.

        Row ``i`` is ``codes[offsets[i]:offsets[i+1]]``; empty rows embed
        to the zero vector.
        """
        count = len(offsets) - 1
        out = np.zeros((count, self.dim), dtype=np.float64)
        if count == 0 or len(codes) == 0:
            return out
        lens = np.diff(offsets)
        # reduceat misbehaves on empty segments (it returns the element
        # *at* the index — and clamping an out-of-range trailing start
        # would steal the previous row's last phoneme), so reduce over
        # the non-empty rows only: their starts are strictly increasing
        # and each segment runs exactly to the next non-empty start.
        nonempty = np.nonzero(lens > 0)[0]
        if len(nonempty) == 0:
            return out
        starts = offsets[:-1][nonempty]
        per_code = self.vectors[codes]
        sums = np.add.reduceat(per_code, starts, axis=0)
        # Capped positional mass, routed to the phoneme's class dim.
        row_of = np.repeat(np.arange(count), lens)
        local = np.arange(len(codes)) - offsets[row_of]
        mass = np.minimum(local, POS_CAP).astype(np.float64) * W_POS
        cls = self.classes[codes]
        cons_mass = np.where(cls > 0, mass, 0.0)
        vowel_mass = np.where(cls < 0, mass, 0.0)
        sums[:, _D_POS_CONS] += np.add.reduceat(cons_mass, starts)
        sums[:, _D_POS_VOWEL] += np.add.reduceat(vowel_mass, starts)
        out[nonempty] = sums
        return out

    # ----------------------------------------------------- contract math

    def lower_bound_constant(self) -> float:
        """The proven constant ``c`` with ``|phi(s)-phi(t)|_1 <= c*d``.

        Enumerates every operation over the symbol table (module
        docstring has the per-operation bounds).  Raises
        :class:`~repro.errors.MatchConfigError` if any operation has
        non-positive cost but nonzero embedding motion — impossible
        after zero-cost collapsing for substitutions, and ruled out for
        indels by the :meth:`CostModel.min_indel_cost` contract.
        """
        if self._constant is not None:
            return self._constant
        size = len(self.symbols)
        if size == 0:
            self._constant = 1.0
            return 1.0
        encoded = self.encoded
        norms = np.abs(self.vectors).sum(axis=1)
        indel_cost = np.minimum(encoded.ins, encoded.dele)
        if np.any(indel_cost <= 0.0):
            raise MatchConfigError(
                "embedding lower bound requires positive indel costs"
            )
        ratio = ((norms + POS_CAP * W_POS) / indel_cost).max()
        diffs = np.abs(
            self.vectors[:, None, :] - self.vectors[None, :, :]
        ).sum(axis=2)
        diffs += (
            self.classes[:, None] != self.classes[None, :]
        ) * (2.0 * POS_CAP * W_POS)
        sub = encoded.sub
        payable = sub > 0.0
        if np.any(~payable & (diffs > 1e-12) & ~np.eye(size, dtype=bool)):
            raise MatchConfigError(
                "zero-cost substitution between symbols with distinct "
                "embeddings survived collapsing"
            )
        if payable.any():
            ratio = max(
                ratio, (diffs[payable] / sub[payable]).max()
            )
        self._constant = float(ratio)
        return self._constant


def quantize(vectors: np.ndarray, scale: float = QUANT_SCALE) -> np.ndarray:
    """Float vectors -> saturating int8 at ``scale`` (see module doc)."""
    return np.clip(np.rint(vectors * scale), -127, 127).astype(np.int8)


def quantized_radius(
    radius: float, dim: int, scale: float = QUANT_SCALE
) -> float:
    """Admission limit in quantized units for a float-space ``radius``.

    ``scale * radius + dim`` absorbs the worst-case rounding slack (one
    unit per dimension), so the quantized test admits a superset of the
    float-space test.
    """
    return scale * radius + dim


class QuantizedMatrixIndex:
    """Chunked int8 L1 radius scan over an ``(N, DIM)`` matrix.

    The batch path of the prefilter: one contiguous quantized matrix,
    scanned ``EMBED_BLOCK`` rows at a time (deadline-polled between
    blocks).  Supports append / tombstone-delete maintenance and exposes
    its whole state as plain arrays for LEXSNAP snapshotting.
    """

    def __init__(self, dim: int = DIM, scale: float = QUANT_SCALE):
        self.scale = float(scale)
        self.matrix = np.zeros((0, dim), dtype=np.int8)
        self.alive = np.zeros(0, dtype=bool)

    def __len__(self) -> int:
        return int(self.alive.sum())

    @classmethod
    def from_vectors(
        cls, vectors: np.ndarray, scale: float = QUANT_SCALE
    ) -> QuantizedMatrixIndex:
        index = cls(vectors.shape[1], scale)
        index.matrix = quantize(vectors, scale)
        index.alive = np.ones(len(index.matrix), dtype=bool)
        return index

    def extend(self, vectors: np.ndarray) -> int:
        """Add a batch of float vectors; returns the first's position."""
        start = len(self.matrix)
        self.matrix = np.concatenate(
            [self.matrix, quantize(vectors, self.scale)]
        )
        self.alive = np.concatenate(
            [self.alive, np.ones(len(vectors), dtype=bool)]
        )
        obs.incr("ann.index.inserts", len(vectors))
        return start

    def append(self, vector: np.ndarray) -> int:
        """Add one float vector; returns its position."""
        return self.extend(vector[None, :])

    def delete(self, position: int) -> None:
        """Tombstone one position (idempotent)."""
        if self.alive[position]:
            self.alive[position] = False
            obs.incr("ann.index.deletes")

    def search(self, query: np.ndarray, radius: float) -> np.ndarray:
        """Positions whose quantized L1 distance admits at ``radius``.

        ``query`` is a float vector; ``radius`` a float-space radius.
        The result is a superset of ``{i : |phi_i - query|_1 <= radius}``
        (quantization slack only ever widens it).
        """
        limit = quantized_radius(radius, self.matrix.shape[1], self.scale)
        q = quantize(query[None, :], self.scale).astype(np.int32)[0]
        total = len(self.matrix)
        hits = []
        for lo in range(0, total, EMBED_BLOCK):
            deadline.check("matching.embed.scan")
            block = self.matrix[lo : lo + EMBED_BLOCK].astype(np.int32)
            dist = np.abs(block - q[None, :]).sum(axis=1)
            ok = (dist <= limit) & self.alive[lo : lo + EMBED_BLOCK]
            hits.append(np.nonzero(ok)[0] + lo)
        out = (
            np.concatenate(hits) if hits else np.empty(0, dtype=np.int64)
        )
        obs.incr("ann.scan.invocations")
        obs.incr("ann.scan.rows", total)
        obs.incr("ann.scan.admitted", len(out))
        return out

    # --------------------------------------------------------- snapshots

    def state(self) -> dict:
        """Plain-array state for the LEXSNAP codec."""
        return {
            "scale": self.scale,
            "matrix": self.matrix,
            "alive": self.alive,
        }

    @classmethod
    def from_state(cls, state: dict) -> QuantizedMatrixIndex:
        matrix = np.ascontiguousarray(state["matrix"], dtype=np.int8)
        index = cls(matrix.shape[1], float(state["scale"]))
        index.matrix = matrix
        index.alive = np.ascontiguousarray(state["alive"], dtype=bool)
        return index

