"""Client-side resilience: retry policies and circuit breakers.

A multiscript-matching service is only as reliable as its clients are
patient: transient faults (a dropped connection, a draining server, a
momentary overload reject) should be ridden through, while a *failing*
endpoint should be backed away from instead of hammered.  Two policies,
both consumed by :class:`~repro.server.client.LexEqualClient`:

* :class:`RetryPolicy` — bounded retries with exponential backoff and
  *full jitter* (delay drawn uniformly from ``[0, min(cap, base·m^n)]``,
  the AWS-style variant that de-synchronizes retry storms);
* :class:`CircuitBreaker` — the classic closed → open → half-open state
  machine per operation: after ``failure_threshold`` consecutive
  transport failures the breaker opens and calls fail fast with
  :class:`~repro.errors.CircuitOpenError`; after ``reset_timeout``
  seconds one half-open probe is let through, and its outcome closes or
  re-opens the circuit.

State transitions and retry decisions feed ``client.*`` metrics in
:mod:`repro.obs`, so a chaos run can assert *how* the client survived,
not just that it did.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass

from repro import obs
from repro.errors import CircuitOpenError
from repro.locks import make_lock

#: Breaker states.
CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half_open"


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded exponential backoff with full jitter.

    ``max_attempts`` counts the first try: ``max_attempts=4`` is one
    call plus up to three retries.  Retry ``n`` (1-based) sleeps a
    uniform random delay in ``[0, min(max_delay, base_delay *
    multiplier**(n-1))]``.
    """

    max_attempts: int = 4
    base_delay: float = 0.05
    multiplier: float = 2.0
    max_delay: float = 2.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.base_delay < 0 or self.max_delay < 0:
            raise ValueError("delays must be >= 0")
        if self.multiplier < 1:
            raise ValueError("multiplier must be >= 1")

    def backoff(self, retry_number: int, rng: random.Random) -> float:
        """The jittered delay before retry ``retry_number`` (1-based)."""
        cap = min(
            self.max_delay,
            self.base_delay * self.multiplier ** (retry_number - 1),
        )
        return rng.uniform(0.0, cap)


@dataclass(frozen=True)
class BreakerPolicy:
    """Tuning knobs for one :class:`CircuitBreaker`."""

    failure_threshold: int = 5
    reset_timeout: float = 5.0

    def __post_init__(self) -> None:
        if self.failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        if self.reset_timeout < 0:
            raise ValueError("reset_timeout must be >= 0")


class CircuitBreaker:
    """Closed → open → half-open breaker for one endpoint (one op).

    Thread-safe: one blocking client issues one request at a time, but
    a :class:`BreakerBoard` hands every caller of an op the same
    breaker, so threads sharing a board race it (benchmark load
    generators do so deliberately).  All state lives behind one lock,
    and half-open admits **exactly one probe**: concurrent
    :meth:`allow` calls while the probe is in flight fail fast with
    :class:`~repro.errors.CircuitOpenError`.  The probe permit is
    released by whichever of :meth:`record_success` /
    :meth:`record_failure` resolves it, so a failed probe re-opens the
    circuit without stranding other callers' permit accounting.
    """

    def __init__(
        self,
        name: str,
        policy: BreakerPolicy | None = None,
        *,
        clock=time.monotonic,
    ):
        self.name = name
        self.policy = policy or BreakerPolicy()
        self._clock = clock
        self._lock = make_lock("server.breaker")
        self.state = CLOSED
        self._consecutive_failures = 0
        self._opened_at: float | None = None
        #: True while the single half-open probe is in flight.
        self._probe_in_flight = False
        self._transitions: dict[str, int] = {}

    # ------------------------------------------------------------ states

    def _transition(self, new_state: str) -> None:
        # Caller holds self._lock.
        if new_state == self.state:
            return
        key = f"{self.state}->{new_state}"
        self._transitions[key] = self._transitions.get(key, 0) + 1
        obs.incr(f"client.breaker.transitions.{self.state}_to_{new_state}")
        self.state = new_state

    def allow(self) -> None:
        """Gate one call; raises :class:`CircuitOpenError` when open.

        An open breaker whose ``reset_timeout`` has elapsed moves to
        half-open and lets exactly one call through as the probe; other
        callers keep failing fast until the probe resolves.
        """
        with self._lock:
            if self.state == OPEN:
                elapsed = self._clock() - (self._opened_at or 0.0)
                if elapsed < self.policy.reset_timeout:
                    obs.incr("client.breaker.fast_fails")
                    raise CircuitOpenError(
                        self.name, self.policy.reset_timeout - elapsed
                    )
                self._transition(HALF_OPEN)
                self._probe_in_flight = True
                return
            if self.state == HALF_OPEN:
                if self._probe_in_flight:
                    obs.incr("client.breaker.fast_fails")
                    raise CircuitOpenError(self.name, 0.0)
                self._probe_in_flight = True

    def record_success(self) -> None:
        """A call completed at the transport level: close the circuit."""
        with self._lock:
            self._consecutive_failures = 0
            self._probe_in_flight = False
            if self.state != CLOSED:
                self._transition(CLOSED)

    def record_failure(self) -> None:
        """A transport failure: trip or re-trip as the policy dictates."""
        with self._lock:
            self._consecutive_failures += 1
            self._probe_in_flight = False
            if self.state == HALF_OPEN:
                # The probe failed: straight back to open, timer re-armed.
                self._opened_at = self._clock()
                self._transition(OPEN)
            elif (
                self.state == CLOSED
                and self._consecutive_failures
                >= self.policy.failure_threshold
            ):
                self._opened_at = self._clock()
                self._transition(OPEN)

    def info(self) -> dict:
        """Breaker state for diagnostics/metrics export."""
        with self._lock:
            return {
                "state": self.state,
                "consecutive_failures": self._consecutive_failures,
                "failure_threshold": self.policy.failure_threshold,
                "reset_timeout": self.policy.reset_timeout,
                "probe_in_flight": self._probe_in_flight,
                "transitions": dict(self._transitions),
            }


class BreakerBoard:
    """Per-op circuit breakers sharing one policy (the client's view)."""

    def __init__(
        self, policy: BreakerPolicy | None = None, *, clock=time.monotonic
    ):
        self.policy = policy or BreakerPolicy()
        self._clock = clock
        self._lock = make_lock("server.breaker_board")
        self._breakers: dict[str, CircuitBreaker] = {}

    def breaker(self, op: str) -> CircuitBreaker:
        with self._lock:
            breaker = self._breakers.get(op)
            if breaker is None:
                breaker = CircuitBreaker(op, self.policy, clock=self._clock)
                self._breakers[op] = breaker
            return breaker

    def info(self) -> dict:
        with self._lock:
            breakers = sorted(self._breakers.items())
        return {op: b.info() for op, b in breakers}
