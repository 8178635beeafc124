"""Process-wide fault-injection failpoints.

Robustness claims need proof: the chaos harness (``tests/test_chaos.py``
and ``scripts/chaos_smoke.py``) drives the real server while *named
failpoints* inject the failures a production multiscript-matching
service actually sees — dropped connections, slow or failing TTP
conversions, worker exhaustion.  A failpoint is a named hook compiled
into a hot path::

    from repro import faults

    def transform(self, text, language):
        faults.fire("ttp.transform", language=language)  # may raise/sleep
        ...

and configured at runtime::

    faults.configure("ttp.transform", probability=0.05, error="ttp",
                     languages=("hindi",))

Modes (combinable on one failpoint):

* **probability** — fire on each evaluation with probability ``p``
  (deterministic under :func:`seed`);
* **latency** — sleep ``latency`` seconds when firing (slow-path
  injection; combined with ``error`` the sleep happens first);
* **error** — raise the configured error kind when firing (see
  :data:`ERROR_KINDS`); a failpoint without an error kind makes
  :func:`fire` return ``True`` and the *site* decides what failure
  means (e.g. the server drops the connection);
* **N-shot** — ``count=N`` limits a failpoint to its first ``N`` fires
  (a one-shot fault is ``count=1``).

Activation paths:

* programmatic (tests): :func:`configure` / :func:`disable` /
  :func:`reset`;
* environment: ``REPRO_FAULTS`` is parsed at import, e.g.
  ``REPRO_FAULTS="server.conn.drop_write:p=0.1;ttp.transform:error=ttp,p=0.05,langs=hindi|tamil"``
  (``REPRO_FAULTS_SEED`` seeds the RNG);
* remotely: the server's ``faults`` op (gated behind
  ``lexequal serve --fault-injection``) for chaos tests against a real
  process.

When no failpoint is configured, :func:`fire` is one module-flag check
and a return — cheap enough for per-request hot paths (the throughput
benchmark budgets < 3% for the whole framework, disabled).
"""

from __future__ import annotations

import os
import random
import time
from contextlib import contextmanager

from repro import obs
from repro.errors import FaultInjectedError, TTPError
from repro.locks import make_lock

__all__ = [
    "FAILPOINTS",
    "FaultInjectedError",
    "configure",
    "describe",
    "disable",
    "fire",
    "is_active",
    "parse_spec",
    "reset",
    "seed",
    "suppressed",
]


def _ttp_error(point: "_Failpoint", language: str | None) -> Exception:
    exc = TTPError(
        f"injected TTP failure at failpoint {point.name!r}"
        + (f" for language {language!r}" if language else "")
    )
    exc.language = language
    return exc


#: Error kinds an error-mode failpoint can raise.
ERROR_KINDS = {
    "fault": lambda point, language: FaultInjectedError(
        f"injected fault at failpoint {point.name!r}"
    ),
    "ttp": _ttp_error,
    "conn": lambda point, language: ConnectionResetError(
        f"injected connection reset at failpoint {point.name!r}"
    ),
    "internal": lambda point, language: RuntimeError(
        f"injected internal error at failpoint {point.name!r}"
    ),
    "io": lambda point, language: OSError(
        f"injected I/O error at failpoint {point.name!r}"
    ),
}


#: Every failpoint name compiled into the library's hot paths.  This is
#: the single source of truth for chaos schedules and docs; the static
#: analysis pass (``repro.analysis``, rule LEX-A002) cross-checks it
#: against the actual ``faults.fire(...)`` call sites in both
#: directions, so a renamed or added site cannot silently drift.
FAILPOINTS = frozenset(
    {
        "pool.admit",
        "pool.execute",
        "server.conn.drop_read",
        "server.conn.drop_write",
        "storage.checkpoint",
        "storage.checkpoint.post_rename",
        "storage.wal.append",
        "storage.wal.fsync",
        "ttp.transform",
    }
)


class _Failpoint:
    """One configured failpoint (see the module docstring for modes)."""

    __slots__ = (
        "name",
        "probability",
        "latency",
        "error",
        "remaining",
        "languages",
        "hits",
        "fires",
    )

    def __init__(
        self,
        name: str,
        probability: float = 1.0,
        latency: float = 0.0,
        error: str | None = None,
        count: int | None = None,
        languages=None,
    ):
        if not 0.0 <= probability <= 1.0:
            raise ValueError(
                f"failpoint probability must be in [0, 1], got {probability}"
            )
        if latency < 0:
            raise ValueError(f"failpoint latency must be >= 0, got {latency}")
        if error is not None and error not in ERROR_KINDS:
            raise ValueError(
                f"unknown failpoint error kind {error!r} "
                f"(known: {', '.join(sorted(ERROR_KINDS))})"
            )
        if count is not None and count < 1:
            raise ValueError(f"failpoint count must be >= 1, got {count}")
        self.name = name
        self.probability = float(probability)
        self.latency = float(latency)
        self.error = error
        self.remaining = count  # None = unlimited
        self.languages = (
            frozenset(lang.lower() for lang in languages)
            if languages
            else None
        )
        self.hits = 0  # evaluations
        self.fires = 0  # evaluations that injected

    def info(self) -> dict:
        return {
            "probability": self.probability,
            "latency": self.latency,
            "error": self.error,
            "remaining": self.remaining,
            "languages": (
                sorted(self.languages) if self.languages else None
            ),
            "hits": self.hits,
            "fires": self.fires,
        }


class FaultRegistry:
    """A thread-safe registry of named failpoints.

    The process-global instance backs the module-level functions; tests
    may build private registries to avoid cross-test interference.
    """

    def __init__(self) -> None:
        self._lock = make_lock("faults.registry")
        self._points: dict[str, _Failpoint] = {}
        self._rng = random.Random()
        #: Lock-free fast-path flag: True iff any failpoint is
        #: configured.  ``fire`` reads it unlocked (benign race — a
        #: configure is visible at the next evaluation).
        self.active = False

    # ------------------------------------------------------ configuration

    def configure(
        self,
        name: str,
        *,
        probability: float = 1.0,
        latency: float = 0.0,
        error: str | None = None,
        count: int | None = None,
        languages=None,
    ) -> None:
        """Enable (or reconfigure) the failpoint ``name``."""
        point = _Failpoint(
            name, probability, latency, error, count, languages
        )
        with self._lock:
            self._points[name] = point
            self.active = True

    def disable(self, name: str) -> None:
        """Disable the failpoint ``name`` (no-op if not configured)."""
        with self._lock:
            self._points.pop(name, None)
            self.active = bool(self._points)

    def reset(self) -> None:
        """Disable every failpoint."""
        with self._lock:
            self._points.clear()
            self.active = False

    def seed(self, value: int) -> None:
        """Seed the firing RNG (chaos schedules are reproducible)."""
        with self._lock:
            self._rng.seed(value)

    def describe(self) -> dict:
        """Configured failpoints and their counters (``faults`` op)."""
        with self._lock:
            return {
                name: point.info()
                for name, point in sorted(self._points.items())
            }

    # ------------------------------------------------------------- firing

    def fire(self, name: str, *, language: str | None = None) -> bool:
        """Evaluate the failpoint ``name`` at an instrumented site.

        Returns ``False`` when the failpoint is not configured or does
        not fire.  When it fires: sleeps ``latency`` if set, raises the
        configured error kind if set, otherwise returns ``True`` so the
        site can apply its own failure (drop a connection, reject an
        admission, ...).
        """
        if not self.active:
            return False
        with self._lock:
            point = self._points.get(name)
            if point is None:
                return False
            point.hits += 1
            if point.remaining is not None and point.remaining <= 0:
                return False
            if point.languages is not None and (
                language is None or language.lower() not in point.languages
            ):
                # A language filter only matches sites that report a
                # language inside the filter set.
                return False
            if (
                point.probability < 1.0
                and self._rng.random() >= point.probability
            ):
                return False
            point.fires += 1
            if point.remaining is not None:
                point.remaining -= 1
            latency = point.latency
            error = point.error
        # Sleep and raise outside the lock: a latency injection must not
        # serialize every other failpoint evaluation behind it.
        obs.incr(f"faults.fired.{name}")
        if latency:
            time.sleep(latency)
        if error is not None:
            raise ERROR_KINDS[error](point, language)
        return True


# ------------------------------------------------------- env-var parsing


def parse_spec(spec: str, registry: FaultRegistry) -> None:
    """Configure ``registry`` from a ``REPRO_FAULTS`` spec string.

    Grammar: ``name:key=value,key=value;name2:...`` with keys ``p``
    (probability), ``latency`` (seconds), ``error`` (kind), ``count``
    (N-shot), ``langs`` (``|``-separated language filter).  A bare
    ``name`` (no ``:``) fires always.
    """
    for clause in spec.split(";"):
        clause = clause.strip()
        if not clause:
            continue
        name, _, options = clause.partition(":")
        name = name.strip()
        if not name:
            raise ValueError(f"empty failpoint name in spec {spec!r}")
        kwargs: dict = {}
        for option in options.split(","):
            option = option.strip()
            if not option:
                continue
            key, sep, value = option.partition("=")
            if not sep:
                raise ValueError(
                    f"malformed failpoint option {option!r} in {spec!r}"
                )
            key = key.strip()
            value = value.strip()
            if key == "p":
                kwargs["probability"] = float(value)
            elif key == "latency":
                kwargs["latency"] = float(value)
            elif key == "error":
                kwargs["error"] = value
            elif key == "count":
                kwargs["count"] = int(value)
            elif key == "langs":
                kwargs["languages"] = tuple(
                    lang for lang in value.split("|") if lang
                )
            else:
                raise ValueError(
                    f"unknown failpoint option {key!r} in {spec!r}"
                )
        registry.configure(name, **kwargs)


# ------------------------------------------------------ global registry

_REGISTRY = FaultRegistry()

_env_spec = os.environ.get("REPRO_FAULTS")
if _env_spec:
    _env_seed = os.environ.get("REPRO_FAULTS_SEED")
    if _env_seed:
        _REGISTRY.seed(int(_env_seed))
    parse_spec(_env_spec, _REGISTRY)


def registry() -> FaultRegistry:
    """The process-global failpoint registry."""
    return _REGISTRY


def configure(name: str, **kwargs) -> None:
    _REGISTRY.configure(name, **kwargs)


def disable(name: str) -> None:
    _REGISTRY.disable(name)


def reset() -> None:
    _REGISTRY.reset()


def seed(value: int) -> None:
    _REGISTRY.seed(value)


def describe() -> dict:
    return _REGISTRY.describe()


def is_active() -> bool:
    return _REGISTRY.active


def fire(name: str, *, language: str | None = None) -> bool:
    """Evaluate a failpoint on the global registry (see module doc)."""
    if not _REGISTRY.active:  # inline fast path: one attr read
        return False
    return _REGISTRY.fire(name, language=language)


@contextmanager
def suppressed():
    """Deactivate every failpoint for the duration of the block.

    Bootstrap paths (building the demo catalog and its phonetic index
    at server startup) run under this so a ``REPRO_FAULTS`` schedule
    targets *serving*, not startup — a p=1 TTP fault should degrade
    queries, not prevent the server from ever binding.  Single-threaded
    use only: the flag is process-global, so concurrent ``fire`` calls
    in other threads would also be suppressed.
    """
    was = _REGISTRY.active
    _REGISTRY.active = False
    try:
        yield
    finally:
        _REGISTRY.active = was or _REGISTRY.active
