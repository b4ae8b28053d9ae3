"""The typed stage-graph executor.

A :class:`Pipeline` owns stage sequencing for the paper's
annotate → translate → recover spine (and the annotator's sub-stages).
It runs a *cohort*: a list of contexts that share one mode, each
stage called once over every live lane, so a stage can batch its
model work across requests.  A single request is a cohort of one
(:meth:`Pipeline.run`).

Per lane and per stage the executor appends a
:class:`~repro.pipeline.trace.StageRecord` — wall time (the stage's
wall over the whole cohort, i.e. the time that request spent in it),
outcome, attempt, batch identity — runs the pipeline's guards
(deadline checks, fault injection) before the stage, and labels an
escaping :class:`~repro.errors.ReproError` with the stage it died in.
A failure fails only its lane: a guard that raises keeps its lane out
of the stage, and an error escaping a multi-lane stage call re-runs
that stage lane by lane.
"""

from __future__ import annotations

from time import perf_counter
from typing import Callable, Protocol, Sequence, runtime_checkable

from repro.errors import ReproError

from repro.pipeline.context import PipelineContext
from repro.pipeline.trace import OUTCOME_ERROR, StageRecord

__all__ = ["Stage", "Guard", "Pipeline"]


@runtime_checkable
class Stage(Protocol):
    """One named unit of pipeline work.

    ``run`` receives every live lane of a cohort (contexts sharing one
    mode) and reads inputs from each context (and prior stages'
    ``artifacts``).  Stages must be stateless with respect to the
    request: all per-question state lives on the contexts, so one stage
    instance may serve concurrent pipelines.
    """

    name: str

    def run(self, ctxs: list[PipelineContext]) -> None: ...


#: A guard runs before a stage, once per lane: it may sleep or raise
#: (deadline checks, fault injection); raising fails only that lane.
Guard = Callable[[Stage, PipelineContext], None]


class Pipeline:
    """An ordered stage graph executed under per-lane guards.

    Pipelines are immutable and stateless: stages and guards are fixed
    at construction, all per-request state lives on the
    :class:`PipelineContext`, so one pipeline instance is safely shared
    across threads and requests.
    """

    __slots__ = ("stages", "guards", "name")

    def __init__(self, stages: Sequence[Stage], guards: Sequence[Guard] = (),
                 name: str = "pipeline"):
        stages = tuple(stages)
        seen: set[str] = set()
        for stage in stages:
            stage_name = getattr(stage, "name", None)
            if not stage_name or not callable(getattr(stage, "run", None)):
                raise ValueError(
                    f"{stage!r} does not implement the Stage protocol "
                    "(needs a 'name' and a 'run(ctxs)')")
            if stage_name in seen:
                raise ValueError(f"duplicate stage name {stage_name!r}")
            seen.add(stage_name)
        self.stages = stages
        self.guards = tuple(guards)
        self.name = name

    def stage_names(self) -> tuple[str, ...]:
        return tuple(stage.name for stage in self.stages)

    def run(self, ctx: PipelineContext) -> PipelineContext:
        """Run one context (a cohort of one); returns the same context.

        Raises the lane's failure.  One :class:`StageRecord` is appended
        per stage entered — including the failing one, so a raised run
        still leaves a complete partial trace on the context.
        """
        self.run_cohort([ctx])
        if ctx.failure is not None:
            raise ctx.failure
        return ctx

    def run_cohort(self, ctxs: Sequence[PipelineContext],
                   batch_id: int | None = None) -> None:
        """Run every stage over the lanes that have not failed.

        The contexts must share one mode.  A lane that fails keeps its
        error on ``ctx.failure`` and leaves the cohort; the others run
        on.  ``batch_id`` stamps each lane's batch identity
        (``batch_id``, ``batch_size``, ``batch_lane``) into the detail
        of every record it gets, nested pipelines' included.
        """
        if batch_id is not None:
            for lane, ctx in enumerate(ctxs):
                ctx.batch = {"batch_id": batch_id, "batch_size": len(ctxs),
                             "batch_lane": lane}
        for stage in self.stages:
            live = [ctx for ctx in ctxs if ctx.failure is None]
            if not live:
                return
            self._run_stage(stage, live)

    # ------------------------------------------------------------------

    def _run_stage(self, stage: Stage, ctxs: list[PipelineContext]) -> None:
        # Nested pipelines share the contexts: save the enclosing
        # stage's records and restore them when this stage ends.
        previous = [ctx.current_record for ctx in ctxs]
        for ctx in ctxs:
            record = StageRecord(stage=stage.name, attempt=ctx.attempt,
                                 mode=ctx.mode, detail=dict(ctx.batch))
            ctx.trace.append(record)
            ctx.current_record = record
        start = perf_counter()
        try:
            admitted = [ctx for ctx in ctxs if self._guard(stage, ctx)]
            if admitted:
                self._call(stage, admitted)
        finally:
            wall = perf_counter() - start
            for ctx, outer in zip(ctxs, previous):
                record = ctx.current_record
                record.wall_s = wall
                if ctx.failure is not None:
                    _fail(record, stage, ctx.failure)
                ctx.current_record = outer

    def _guard(self, stage: Stage, ctx: PipelineContext) -> bool:
        try:
            for guard in self.guards:
                guard(stage, ctx)
        except ReproError as exc:
            ctx.failure = exc
            return False
        return True

    @staticmethod
    def _call(stage: Stage, ctxs: list[PipelineContext]) -> None:
        try:
            stage.run(ctxs)
            return
        except ReproError as exc:
            if len(ctxs) == 1:
                ctxs[0].failure = exc
                return
        # A multi-lane call failed: find the faulty lane(s) by re-running
        # the stage one lane at a time.
        for ctx in ctxs:
            if ctx.failure is None:
                try:
                    stage.run([ctx])
                except ReproError as exc:
                    ctx.failure = exc


def _fail(record: StageRecord, stage: Stage, exc: ReproError) -> None:
    record.outcome = OUTCOME_ERROR
    record.error = type(exc).__name__
    record.message = str(exc)
    # Label the error with the stage it escaped from, unless a deeper
    # layer (a nested pipeline, a guard) already named one.
    if getattr(exc, "stage", None) is None:
        exc.stage = stage.name
