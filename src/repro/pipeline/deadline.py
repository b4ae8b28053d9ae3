"""Per-request latency budgets, checked between pipeline stages.

:class:`Deadline` lives in the pipeline package (not the serving
layer) because budget checks are a *stage-graph* concern: the
:func:`~repro.pipeline.guards.deadline_guard` consults the
context's deadline before every stage, so any pipeline — full,
context-free, or a future variant — gets enforcement without per-call
wiring.  The serving layer re-exports it unchanged.
"""

from __future__ import annotations

from time import monotonic
from typing import Callable

from repro.errors import DeadlineExceeded

__all__ = ["Deadline"]


class Deadline:
    """A latency budget started at construction time.

    ``budget_s=None`` means "no deadline": :meth:`remaining` is
    infinite and :meth:`check` never raises, so callers need no
    conditional plumbing for the unlimited case.
    """

    __slots__ = ("budget_s", "_start", "_clock")

    def __init__(self, budget_s: float | None,
                 clock: Callable[[], float] = monotonic):
        if budget_s is not None and budget_s < 0:
            raise ValueError(f"deadline budget must be >= 0, got {budget_s}")
        self.budget_s = budget_s
        self._clock = clock
        self._start = clock()

    def elapsed(self) -> float:
        """Seconds since the deadline started."""
        return self._clock() - self._start

    def remaining(self) -> float:
        """Seconds left in the budget (``inf`` when unlimited, >= 0)."""
        if self.budget_s is None:
            return float("inf")
        return max(0.0, self.budget_s - self.elapsed())

    def expired(self) -> bool:
        return self.remaining() <= 0.0

    def check(self, stage: str) -> None:
        """Raise :class:`DeadlineExceeded` if the budget is spent.

        Called *before* entering each pipeline stage, so the raised
        error names the stage that was about to run when time ran out.
        """
        if self.expired():
            raise DeadlineExceeded(
                f"deadline of {self.budget_s:.3f}s exceeded before "
                f"{stage!r} (elapsed {self.elapsed():.3f}s)", stage=stage)
