"""The typed stage-graph executor behind annotate → translate → recover.

The paper's three-step pipeline (annotation ``q → qᵃ``, translation
``qᵃ → sᵃ``, recovery ``sᵃ → s``) is the spine of the system; this
package gives it one owner.  A :class:`Pipeline` sequences
:class:`Stage` objects over a cohort of :class:`PipelineContext` lanes
(question tokens, table, artifacts, deadline, rng) — a single request
is a cohort of one — while guards run the cross-cutting checks before
each stage, per lane (deadline checks, fault injection), and every
lane leaves an append-only :class:`StageTrace` of per-stage records
(name, wall time, outcome, attempt, batch identity).

Layering: this package depends only on ``repro.errors`` (and, for
typing, ``repro.sqlengine``).  ``repro.core`` builds its pipelines
from it; ``repro.serving`` adds caching, retries, degradation ladders,
and breakers *around* it.
"""

from repro.pipeline.context import PipelineContext
from repro.pipeline.deadline import Deadline
from repro.pipeline.executor import Guard, Pipeline, Stage
from repro.pipeline.guards import FaultGuard, deadline_guard
from repro.pipeline.trace import (
    OUTCOME_CACHED,
    OUTCOME_ERROR,
    OUTCOME_OK,
    OUTCOME_SKIPPED,
    WIRE_SCHEMA_VERSION,
    StageRecord,
    StageTrace,
)

__all__ = [
    "Pipeline", "Stage", "Guard", "PipelineContext",
    "StageRecord", "StageTrace", "Deadline", "WIRE_SCHEMA_VERSION",
    "OUTCOME_OK", "OUTCOME_ERROR", "OUTCOME_CACHED", "OUTCOME_SKIPPED",
    "deadline_guard", "FaultGuard",
]
