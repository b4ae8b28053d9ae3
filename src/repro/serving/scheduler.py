"""Cross-request micro-batching: the admission policy and the queue.

PR 4 vectorized the *within-request* loops (batched column scoring,
lockstep beam search); the remaining multiple is *across* requests.
Concurrent ``translate()`` calls all run the same stage sequence, so
their model-bound stages coalesce naturally: score every pending
question's columns in one classifier pass, advance every pending beam
search as one decoder/attention batch per step.

This module owns the two serving-agnostic pieces:

* :class:`SchedulerPolicy` — the max-wait/max-batch admission decision,
  a pure function of (queue depth, clock) so it unit-tests with an
  injectable clock and no threads;
* :class:`MicroBatchScheduler` — a queue + one worker thread that
  drains requests in policy-sized batches and hands them to a
  ``process(batch)`` callback (the service's batch executor).

The default policy is **natural batching** (``max_wait_s=0``): the
worker dispatches whatever is queued the moment it goes idle, so a
lone request at low load is picked up immediately (p50 does not
regress) while requests arriving during a busy batch pile up and
coalesce into the next one — the standard continuous-batching shape.
A positive ``max_wait_s`` additionally holds the *first* request of a
batch back, trading p50 for larger batches under sparse traffic.
A ``max_queued`` bound turns the queue's growth into refusals: the
service answers a refused request at once with a retryable
:class:`~repro.errors.Overloaded` envelope (backpressure by rejection
rather than by an ever-longer wait).
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import asdict, dataclass
from time import monotonic
from typing import Callable, Generic, TypeVar

from repro.errors import ReproError

__all__ = ["SchedulerPolicy", "MicroBatchScheduler", "QueueClosed"]

T = TypeVar("T")

#: :meth:`SchedulerPolicy.decide` verdicts.
DISPATCH = "dispatch"
WAIT = "wait"
IDLE = "idle"


class QueueClosed(ReproError):
    """Submission after :meth:`MicroBatchScheduler.close`."""


@dataclass(frozen=True)
class SchedulerPolicy:
    """Max-wait/max-batch admission control for the micro-batch queue.

    Attributes
    ----------
    max_batch:
        Hard cap on how many requests one batch may coalesce.  Bounds
        both tail latency (a request never waits for more than one
        ``max_batch`` cohort ahead of it) and the kernel's peak memory.
    max_wait_s:
        How long the oldest queued request may age before the batch
        dispatches regardless of size.  ``0`` (the default) is natural
        batching: dispatch whatever is queued as soon as the worker is
        free.
    max_queued:
        Bound on requests waiting in the queue (the batch the worker is
        running does not count).  Submissions past it are refused.
        ``None`` (the default) leaves the queue unbounded.
    """

    max_batch: int = 16
    max_wait_s: float = 0.0
    max_queued: int | None = None

    def __post_init__(self) -> None:
        if self.max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if self.max_wait_s < 0:
            raise ValueError("max_wait_s must be >= 0")
        if self.max_queued is not None and self.max_queued < 1:
            raise ValueError("max_queued must be None or >= 1")

    def decide(self, queued: int, now: float,
               oldest_enqueued_at: float | None,
               ) -> tuple[str, float | int | None]:
        """One admission decision; pure, so fake-clock testable.

        Returns ``("dispatch", k)`` (take the ``k`` oldest requests),
        ``("wait", seconds)`` (sleep at most that long, then re-decide),
        or ``("idle", None)`` (queue empty; sleep until a submission).
        """
        if queued <= 0:
            return IDLE, None
        if queued >= self.max_batch:
            return DISPATCH, self.max_batch
        if oldest_enqueued_at is None:
            raise ValueError("queued > 0 requires oldest_enqueued_at")
        waited = now - oldest_enqueued_at
        if waited >= self.max_wait_s:
            return DISPATCH, queued
        return WAIT, self.max_wait_s - waited


class MicroBatchScheduler(Generic[T]):
    """A queue draining into policy-sized batches on one worker thread.

    ``process(batch)`` runs every drained batch; it must resolve each
    item's completion itself (the service resolves futures) and should
    not raise — if it does, ``on_batch_error(batch, exc)`` is invoked
    so no submitter is left hanging, and the worker keeps serving.

    One worker means batches execute strictly one at a time, which is
    exactly the serialization the model needs anyway (the numpy kernels
    are not reentrant under ``no_grad``); the queue in front of it is
    what turns concurrency into batch size.  The thread starts lazily
    on the first submission and is a daemon, so an unclosed scheduler
    never blocks interpreter exit.
    """

    def __init__(self, process: Callable[[list[T]], None],
                 policy: SchedulerPolicy | None = None,
                 on_batch_error: Callable[[list[T], BaseException], None]
                 | None = None,
                 clock: Callable[[], float] = monotonic):
        self.policy = policy or SchedulerPolicy()
        self._process = process
        self._on_batch_error = on_batch_error
        self._clock = clock
        self._queue: deque[tuple[T, float]] = deque()
        self._lock = threading.Lock()
        self._wakeup = threading.Condition(self._lock)
        self._worker: threading.Thread | None = None
        self._closed = False
        self._batches = 0
        self._coalesced_batches = 0
        self._dispatched = 0
        self._max_batch_seen = 0

    def submit(self, item: T) -> bool:
        """Enqueue one request; starts the worker on first use.

        Returns ``False`` when the ``max_queued`` bound refused it.
        """
        return self.submit_many((item,)) == 1

    def submit_many(self, items) -> int:
        """Enqueue several requests under one lock acquisition.

        The worker cannot observe a partially appended group, so a
        ``translate_batch`` call's requests reach the queue together and
        coalesce into as few batches as the policy allows — submitting
        them one ``submit`` at a time would let the worker dispatch a
        singleton batch off the front of the group.

        Returns how many items were admitted: the longest prefix that
        fits under ``max_queued`` (all of them when unbounded).  The
        caller owns the refused remainder.
        """
        items = list(items)
        if not items:
            return 0
        with self._wakeup:
            if self._closed:
                raise QueueClosed("scheduler is closed")
            bound = self.policy.max_queued
            if bound is not None:
                items = items[:max(bound - len(self._queue), 0)]
                if not items:
                    return 0
            now = self._clock()
            for item in items:
                self._queue.append((item, now))
            if self._worker is None:
                self._worker = threading.Thread(
                    target=self._run, name="repro-microbatch", daemon=True)
                self._worker.start()
            self._wakeup.notify()
        return len(items)

    def close(self) -> None:
        """Stop accepting work and wake the worker to drain the queue.

        Already-queued requests still execute (their submitters hold
        futures); only new submissions are refused.
        """
        with self._wakeup:
            self._closed = True
            self._wakeup.notify_all()

    def stats(self) -> dict:
        """Queue/batch counters for the service's ``stats()`` block."""
        with self._lock:
            return {
                "queued": len(self._queue),
                "batches": self._batches,
                "coalesced_batches": self._coalesced_batches,
                "dispatched": self._dispatched,
                "max_batch": self._max_batch_seen,
                "policy": asdict(self.policy),
            }

    # ------------------------------------------------------------------

    def _run(self) -> None:
        while True:
            batch = self._next_batch()
            if batch is None:
                return
            try:
                self._process(batch)
            except BaseException as exc:  # noqa: BLE001 — must not die
                if self._on_batch_error is not None:
                    try:
                        self._on_batch_error(batch, exc)
                    except BaseException:
                        pass

    def _next_batch(self) -> list[T] | None:
        with self._wakeup:
            while True:
                verdict, arg = self.policy.decide(
                    len(self._queue), self._clock(),
                    self._queue[0][1] if self._queue else None)
                if verdict == DISPATCH:
                    take = min(int(arg), len(self._queue))
                    batch = [self._queue.popleft()[0] for _ in range(take)]
                    self._batches += 1
                    self._dispatched += take
                    self._max_batch_seen = max(self._max_batch_seen, take)
                    if take > 1:
                        self._coalesced_batches += 1
                    return batch
                if self._closed:
                    return None
                self._wakeup.wait(timeout=arg if verdict == WAIT else None)
