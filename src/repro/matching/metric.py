"""Metric-axiom validation for edit-distance cost models.

A weighted edit distance is a true (pseudo)metric on phoneme strings iff
the per-symbol costs satisfy, for all inventory symbols ``a, b, k``:

* **positivity** — ``insert(a) > 0``, ``delete(a) > 0``,
  ``substitute(a, b) >= 0``;
* **identity** — ``substitute(a, a) == 0``;
* **symmetry** — ``substitute(a, b) == substitute(b, a)`` and
  ``insert(a) == delete(a)`` (reversing an edit script swaps inserts
  with deletes and transposes substitutions);
* **triangle** — ``substitute(a, b) <= substitute(a, k) +
  substitute(k, b)``, ``substitute(a, b) <= delete(a) + insert(b)``, and
  ``delete(a) <= substitute(a, b) + delete(b)`` (an operation is never
  beaten by a detour through a third symbol).

Symmetry is what LexEQUAL's matching relies on (a join evaluates each
pair once).  No lossless candidate source relies on the string triangle
inequality, which fractional models can break: under
``ClusteredCost(0.25)`` a strong vowel in a weak phoneme's cluster is
cheaper to delete by way of that phoneme (``d((), (a,)) = 1.0 > 0.25 +
0.5``).  :func:`check_metric_axioms` verifies all of the axioms
exhaustively over the phoneme inventory (or any symbol set) and returns
the violations; the static-analysis pass (``repro.analysis``, rule
LEX-D003) runs it over the shipped cost models on every CI run.

With numpy available the checks are vectorized (the triangle scan is
``O(n^3)`` over ~150 symbols); a pure-Python fallback keeps the checker
working when numpy is absent.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from repro.matching.costs import CostModel

#: Comparison slack for float cost arithmetic.
_EPS = 1e-9


@dataclass(frozen=True)
class MetricViolation:
    """One broken axiom: which one, the symbols involved, and the math."""

    axiom: str  # positivity | identity | symmetry | triangle
    symbols: tuple[str, ...]
    detail: str

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.axiom}({', '.join(self.symbols)}): {self.detail}"


def _inventory_symbols() -> tuple[str, ...]:
    from repro.phonetics.parse import all_symbols

    return all_symbols()


def check_metric_axioms(
    costs: CostModel,
    symbols: Sequence[str] | None = None,
    *,
    max_violations: int = 50,
) -> list[MetricViolation]:
    """Exhaustively check the metric axioms of ``costs`` over ``symbols``.

    ``symbols`` defaults to the full phoneme inventory.  Returns at most
    ``max_violations`` violations (the scan stops early once the cap is
    reached); an empty list means the induced edit distance is a
    symmetric pseudometric.
    """
    syms = tuple(symbols) if symbols is not None else _inventory_symbols()
    try:
        return _check_numpy(costs, syms, max_violations)
    except ImportError:  # pragma: no cover - numpy is present in CI
        return _check_pure(costs, syms, max_violations)


# ------------------------------------------------------------ numpy path


def _check_numpy(
    costs: CostModel, syms: tuple[str, ...], cap: int
) -> list[MetricViolation]:
    import numpy as np

    from repro.matching.batch import EncodedCosts

    enc = EncodedCosts(costs, syms)
    sub, ins, dele = enc.sub, enc.ins, enc.dele
    out: list[MetricViolation] = []

    def add(axiom: str, involved: tuple[str, ...], detail: str) -> bool:
        out.append(MetricViolation(axiom, involved, detail))
        return len(out) >= cap

    for i in np.flatnonzero((ins <= 0) | (dele <= 0)):
        if add(
            "positivity",
            (syms[i],),
            f"insert={ins[i]:g} delete={dele[i]:g} (must be > 0)",
        ):
            return out
    for i, j in zip(*np.nonzero(sub < 0)):
        if add(
            "positivity",
            (syms[i], syms[j]),
            f"substitute={sub[i, j]:g} (must be >= 0)",
        ):
            return out
    for i in np.flatnonzero(np.abs(np.diag(sub)) > _EPS):
        if add("identity", (syms[i],), f"substitute(a, a)={sub[i, i]:g}"):
            return out
    for i, j in zip(*np.nonzero(np.abs(sub - sub.T) > _EPS)):
        if i < j and add(
            "symmetry",
            (syms[i], syms[j]),
            f"substitute(a, b)={sub[i, j]:g} != "
            f"substitute(b, a)={sub[j, i]:g}",
        ):
            return out
    for i in np.flatnonzero(np.abs(ins - dele) > _EPS):
        if add(
            "symmetry",
            (syms[i],),
            f"insert={ins[i]:g} != delete={dele[i]:g}",
        ):
            return out
    # substitute(a, b) <= min_k substitute(a, k) + substitute(k, b):
    # one min-plus "square" of the substitution matrix.
    through = np.min(sub[:, :, None] + sub[None, :, :], axis=1)
    for i, j in zip(*np.nonzero(sub > through + _EPS)):
        k = int(np.argmin(sub[i] + sub[:, j]))
        if add(
            "triangle",
            (syms[i], syms[j], syms[k]),
            f"substitute(a, b)={sub[i, j]:g} > "
            f"substitute(a, k) + substitute(k, b)={through[i, j]:g}",
        ):
            return out
    for i, j in zip(*np.nonzero(sub > dele[:, None] + ins[None, :] + _EPS)):
        if add(
            "triangle",
            (syms[i], syms[j]),
            f"substitute(a, b)={sub[i, j]:g} > "
            f"delete(a) + insert(b)={dele[i] + ins[j]:g}",
        ):
            return out
    for i, j in zip(*np.nonzero(dele[:, None] > sub + dele[None, :] + _EPS)):
        if add(
            "triangle",
            (syms[i], syms[j]),
            f"delete(a)={dele[i]:g} > substitute(a, b) + "
            f"delete(b)={sub[i, j] + dele[j]:g}",
        ):
            return out
    return out


# ------------------------------------------------------ pure-python path


def _check_pure(
    costs: CostModel, syms: tuple[str, ...], cap: int
) -> list[MetricViolation]:
    out: list[MetricViolation] = []
    sub = {
        (a, b): costs.substitute(a, b) for a in syms for b in syms
    }
    ins = {a: costs.insert(a) for a in syms}
    dele = {a: costs.delete(a) for a in syms}

    def add(axiom: str, involved: tuple[str, ...], detail: str) -> bool:
        out.append(MetricViolation(axiom, involved, detail))
        return len(out) >= cap

    for a in syms:
        if ins[a] <= 0 or dele[a] <= 0:
            if add(
                "positivity",
                (a,),
                f"insert={ins[a]:g} delete={dele[a]:g} (must be > 0)",
            ):
                return out
        if abs(sub[a, a]) > _EPS:
            if add("identity", (a,), f"substitute(a, a)={sub[a, a]:g}"):
                return out
        if abs(ins[a] - dele[a]) > _EPS:
            if add(
                "symmetry",
                (a,),
                f"insert={ins[a]:g} != delete={dele[a]:g}",
            ):
                return out
    for a in syms:
        for b in syms:
            if sub[a, b] < 0:
                if add(
                    "positivity",
                    (a, b),
                    f"substitute={sub[a, b]:g} (must be >= 0)",
                ):
                    return out
            if a < b and abs(sub[a, b] - sub[b, a]) > _EPS:
                if add(
                    "symmetry",
                    (a, b),
                    f"substitute(a, b)={sub[a, b]:g} != "
                    f"substitute(b, a)={sub[b, a]:g}",
                ):
                    return out
            if sub[a, b] > dele[a] + ins[b] + _EPS:
                if add(
                    "triangle",
                    (a, b),
                    f"substitute(a, b)={sub[a, b]:g} > delete(a) + "
                    f"insert(b)={dele[a] + ins[b]:g}",
                ):
                    return out
            if dele[a] > sub[a, b] + dele[b] + _EPS:
                if add(
                    "triangle",
                    (a, b),
                    f"delete(a)={dele[a]:g} > substitute(a, b) + "
                    f"delete(b)={sub[a, b] + dele[b]:g}",
                ):
                    return out
    for a in syms:
        for b in syms:
            bound = sub[a, b] + _EPS
            for k in syms:
                if sub[a, k] + sub[k, b] < bound - _EPS * 2:
                    if add(
                        "triangle",
                        (a, b, k),
                        f"substitute(a, b)={sub[a, b]:g} > "
                        f"substitute(a, k) + substitute(k, b)="
                        f"{sub[a, k] + sub[k, b]:g}",
                    ):
                        return out
                    break
    return out
