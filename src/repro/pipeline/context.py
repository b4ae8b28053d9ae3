"""The mutable state one question carries through the stage graph.

A :class:`PipelineContext` is created per translation attempt and
threaded through every stage: inputs (question tokens, table and its
content fingerprint, mode, beam width), cross-cutting controls (the
deadline, an optional RNG), the ``artifacts`` dict stages read from
and write to, the append-only :class:`~repro.pipeline.trace.
StageTrace` the executor fills in, and — once the lane has failed —
the error that took it out of its cohort.

The ``trace`` is injectable so a caller (the serving layer's retry /
degradation ladder) can accumulate records from several pipeline runs
into one request-level trace while giving each run fresh artifacts.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.errors import ReproError
from repro.pipeline.deadline import Deadline
from repro.pipeline.trace import StageRecord, StageTrace

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sqlengine import Table

__all__ = ["PipelineContext"]


@dataclass
class PipelineContext:
    """Everything a stage may read or produce while translating.

    Stages communicate exclusively through :attr:`artifacts`, so the
    executor — not the stages — owns sequencing.
    """

    question_tokens: list[str]
    table: "Table | None" = None
    #: The table's content fingerprint; the first stage that needs it
    #: fills it in when the caller did not.
    table_key: str | None = None
    mode: str = "full"
    beam_width: int | None = None
    deadline: Deadline | None = None
    rng: random.Random | None = None
    #: 1-based attempt ordinal, stamped into every trace record.
    attempt: int = 1
    artifacts: dict = field(default_factory=dict)
    trace: StageTrace = field(default_factory=StageTrace)
    #: The record of the stage currently executing (executor-managed).
    current_record: StageRecord | None = field(
        default=None, init=False, repr=False, compare=False)
    #: The error that failed this lane; the executor runs no further
    #: stage for it.
    failure: ReproError | None = field(default=None, init=False,
                                       compare=False)
    #: Batch identity (``batch_id``, ``batch_size``, ``batch_lane``)
    #: stamped into every record's detail; empty outside a batch.
    batch: dict = field(default_factory=dict, init=False, compare=False)

    def note(self, **detail) -> None:
        """Attach detail to the currently running stage's trace record.

        No-op outside a stage, so helper code may call it
        unconditionally.
        """
        if self.current_record is not None:
            self.current_record.detail.update(detail)
