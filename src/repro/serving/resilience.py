"""Resilience primitives for the serving layer.

A production NLIDB must degrade rather than die: the DBPal/NaLIR
framing of the paper's system is an interactive service, and an
interactive service that answers *something structured* on every
request is strictly more useful than one that is fast until the first
unhandled exception.  This module holds the three mechanisms
:class:`~repro.serving.service.TranslationService` composes:

* :class:`~repro.pipeline.Deadline` (re-exported) — a per-request
  latency budget enforced per stage by ``deadline_guard``, raising
  :class:`~repro.errors.DeadlineExceeded` with the stage it expired in;
* :class:`ResiliencePolicy` — the knob bundle: deadline, bounded
  retry/backoff schedule, degradation switch, breaker thresholds;
* :class:`CircuitBreaker` — a classic closed → open → half-open
  breaker over the *full* translation path.  While open, the service
  still answers from cache and through the degraded context-free
  ladder rung; after ``cooldown_s`` it lets a bounded number of probe
  requests through, closing again on the first success.

Everything here is plain Python, deterministic, and clock-injectable
so the fault-injection suite can test every transition without
sleeping.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from time import monotonic
from typing import Callable

# Deadline moved down into repro.pipeline (it is enforced by a pipeline
# guard now); re-exported here for backward compatibility.
from repro.pipeline.deadline import Deadline

__all__ = ["Deadline", "ResiliencePolicy", "CircuitBreaker",
           "BREAKER_CLOSED", "BREAKER_OPEN", "BREAKER_HALF_OPEN"]

BREAKER_CLOSED = "closed"
BREAKER_OPEN = "open"
BREAKER_HALF_OPEN = "half_open"

#: Numeric encoding of breaker states for the metrics gauge (JSON
#: snapshots want numbers, dashboards want a threshold-able series).
BREAKER_STATE_GAUGE = {BREAKER_CLOSED: 0.0, BREAKER_HALF_OPEN: 0.5,
                       BREAKER_OPEN: 1.0}


@dataclass(frozen=True)
class ResiliencePolicy:
    """Every serving-resilience knob in one frozen bundle.

    The defaults are production-shaped (retries on, degradation on,
    breaker armed, no deadline); tests construct tighter policies with
    zero backoff so nothing sleeps.
    """

    #: Per-request wall-clock budget in seconds; ``None`` disables it.
    deadline_s: float | None = None
    #: Retries *after* the first attempt, for retryable failures only.
    max_retries: int = 2
    #: First backoff delay; each retry multiplies it, capped below.
    backoff_base_s: float = 0.05
    backoff_multiplier: float = 2.0
    backoff_cap_s: float = 1.0
    #: Whether the context-free degraded rung may serve fallbacks.
    degradation: bool = True
    #: Consecutive full-path failures that trip the breaker open.
    breaker_failure_threshold: int = 5
    #: Seconds the breaker stays open before allowing probes.
    breaker_cooldown_s: float = 30.0
    #: Concurrent probe requests admitted while half-open.
    breaker_half_open_probes: int = 1

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.breaker_failure_threshold < 1:
            raise ValueError("breaker_failure_threshold must be >= 1")

    def backoff_delay(self, retry_number: int) -> float:
        """Delay before retry ``retry_number`` (1-based), bounded.

        ``base * multiplier ** (n - 1)``, clipped to ``backoff_cap_s``.
        """
        if retry_number < 1:
            raise ValueError("retry_number is 1-based")
        delay = self.backoff_base_s * (self.backoff_multiplier
                                       ** (retry_number - 1))
        return min(delay, self.backoff_cap_s)


class CircuitBreaker:
    """Thread-safe closed → open → half-open breaker.

    * **closed** — requests flow; ``failure_threshold`` *consecutive*
      failures trip it open (any success resets the count).
    * **open** — :meth:`allow` refuses until ``cooldown_s`` has passed
      since opening, then transitions to half-open.
    * **half-open** — up to ``half_open_probes`` calls are admitted as
      probes; the first recorded success closes the breaker, the first
      failure re-opens it (restarting the cooldown).

    The breaker never raises; callers ask :meth:`allow` and record
    outcomes.  ``clock`` is injectable so tests drive the cooldown
    without sleeping.
    """

    def __init__(self, failure_threshold: int = 5, cooldown_s: float = 30.0,
                 half_open_probes: int = 1,
                 clock: Callable[[], float] = monotonic):
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        if half_open_probes < 1:
            raise ValueError("half_open_probes must be >= 1")
        self.failure_threshold = failure_threshold
        self.cooldown_s = cooldown_s
        self.half_open_probes = half_open_probes
        self._clock = clock
        self._lock = threading.Lock()
        self._state = BREAKER_CLOSED
        self._consecutive_failures = 0
        self._opened_at: float | None = None
        self._probes_granted = 0
        self._opens = 0

    @classmethod
    def from_policy(cls, policy: ResiliencePolicy,
                    clock: Callable[[], float] = monotonic,
                    ) -> "CircuitBreaker":
        return cls(failure_threshold=policy.breaker_failure_threshold,
                   cooldown_s=policy.breaker_cooldown_s,
                   half_open_probes=policy.breaker_half_open_probes,
                   clock=clock)

    # ------------------------------------------------------------------

    @property
    def state(self) -> str:
        with self._lock:
            self._maybe_half_open()
            return self._state

    def allow(self) -> bool:
        """Whether the full pipeline may be attempted right now."""
        with self._lock:
            self._maybe_half_open()
            if self._state == BREAKER_CLOSED:
                return True
            if self._state == BREAKER_HALF_OPEN:
                if self._probes_granted < self.half_open_probes:
                    self._probes_granted += 1
                    return True
            return False

    def record_success(self) -> None:
        with self._lock:
            self._consecutive_failures = 0
            if self._state == BREAKER_HALF_OPEN:
                self._state = BREAKER_CLOSED
                self._opened_at = None
            self._probes_granted = 0

    def record_failure(self) -> None:
        with self._lock:
            self._consecutive_failures += 1
            if self._state == BREAKER_HALF_OPEN:
                self._trip()
            elif (self._state == BREAKER_CLOSED
                  and self._consecutive_failures >= self.failure_threshold):
                self._trip()

    def snapshot(self) -> dict:
        """JSON-ready view of the breaker (printed by ``serve-stats``)."""
        with self._lock:
            self._maybe_half_open()
            return {
                "state": self._state,
                "consecutive_failures": self._consecutive_failures,
                "failure_threshold": self.failure_threshold,
                "cooldown_s": self.cooldown_s,
                "opens": self._opens,
            }

    def state_gauge(self) -> float:
        """The numeric gauge value of the current state."""
        return BREAKER_STATE_GAUGE[self.state]

    # ------------------------------------------------------------------

    def _trip(self) -> None:
        # Caller holds the lock.
        self._state = BREAKER_OPEN
        self._opened_at = self._clock()
        self._probes_granted = 0
        self._opens += 1

    def _maybe_half_open(self) -> None:
        # Caller holds the lock.  Open → half-open is time-driven, so
        # every read-side entry point applies it lazily.
        if (self._state == BREAKER_OPEN and self._opened_at is not None
                and self._clock() - self._opened_at >= self.cooldown_s):
            self._state = BREAKER_HALF_OPEN
            self._probes_granted = 0
