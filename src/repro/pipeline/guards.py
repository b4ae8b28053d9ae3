"""Built-in pipeline guards: the checks that run before each stage.

A guard is called as ``guard(stage, ctx)`` once per lane, before the
stage runs; raising a :class:`~repro.errors.ReproError` fails that lane
alone, and the rest of the cohort enters the stage.

* :func:`deadline_guard` — consult ``ctx.deadline`` (no-op when the
  context carries none);
* :class:`FaultGuard` — run a fault injector's ``before(stage, mode)``
  hook (deterministic failure testing).
"""

from __future__ import annotations

from typing import Protocol

from repro.pipeline.context import PipelineContext

__all__ = ["deadline_guard", "FaultGuard"]


def deadline_guard(stage, ctx: PipelineContext) -> None:
    """Enforce the context's latency budget before entering a stage.

    Raises :class:`~repro.errors.DeadlineExceeded` naming the stage
    that was about to run; contexts without a deadline pass through.
    """
    if ctx.deadline is not None:
        ctx.deadline.check(stage.name)


class _Injector(Protocol):  # pragma: no cover - typing only
    def before(self, stage: str, mode: str | None = None) -> None: ...


class FaultGuard:
    """Apply a fault injector's plan ahead of every stage.

    The injector (see :class:`~repro.serving.faults.FaultInjector`) may
    sleep (latency faults) or raise (transient/permanent faults); it
    receives the stage name and the context's annotation mode, so one
    plan can target e.g. only the full rung's ``annotate`` stage.
    """

    __slots__ = ("injector",)

    def __init__(self, injector: _Injector):
        self.injector = injector

    def __call__(self, stage, ctx: PipelineContext) -> None:
        self.injector.before(stage.name, mode=ctx.mode)
