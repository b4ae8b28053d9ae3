"""Per-stage execution records: the pipeline's observability spine.

Every pipeline run appends one :class:`StageRecord` per stage and per
lane to the lane context's :class:`StageTrace` — stage name, outcome,
wall time, attempt ordinal, annotation mode, and (for a lane of a
batch) its batch identity.  The serving
layer derives its per-stage metrics and the ``TranslationResult.trace``
field from these records instead of hand-rolled timer blocks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["StageRecord", "StageTrace", "WIRE_SCHEMA_VERSION",
           "OUTCOME_OK", "OUTCOME_ERROR", "OUTCOME_CACHED",
           "OUTCOME_SKIPPED"]

#: Version of every JSON envelope this system emits (stage-record
#: dicts, ``Translation.to_dict``, ``TranslationResult.to_dict``, the
#: ``serve-stats`` report).  Version 1 retroactively names the
#: unversioned envelope shipped through PR 6; version 2 adds the
#: explicit ``schema_version`` field, the ``Translation.to_dict`` view,
#: and batch-identity labels in stage-trace details; version 3 added the
#: in-process cluster's routing fields — a replica id and a shard key on
#: ``TranslationResult`` and a ``route`` stage record; version 4
#: removes all three with the cluster (one service, nothing to route).
#: Version 5 is reserved for the per-request span tree.  The full
#: envelope shape is documented in DESIGN.md ("Wire schema").
WIRE_SCHEMA_VERSION = 4

#: The stage ran to completion.
OUTCOME_OK = "ok"
#: The stage (or a guard run before it) raised.
OUTCOME_ERROR = "error"
#: The answer came from a cache without running the stage (the
#: serving layer's translation-cache hit).
OUTCOME_CACHED = "cached"
#: The stage was deliberately bypassed (e.g. breaker short-circuit).
OUTCOME_SKIPPED = "skipped"


@dataclass
class StageRecord:
    """One stage execution (or refusal) inside one pipeline run.

    Attributes
    ----------
    stage:
        Stage name; sub-stages use dotted names (``"annotate.values"``).
    outcome:
        One of :data:`OUTCOME_OK` / :data:`OUTCOME_ERROR` /
        :data:`OUTCOME_CACHED` / :data:`OUTCOME_SKIPPED`.
    wall_s:
        Wall-clock seconds spent in the stage, guards included.  In a
        cohort every lane's record carries the stage's wall over the
        whole cohort: the time that request spent in the stage.
    attempt:
        1-based attempt ordinal of the pipeline run that produced the
        record (retries re-run the pipeline with a higher ordinal).
    mode:
        The annotation mode the run executed under (``"full"`` or
        ``"context_free"``).
    cached:
        Whether the serving layer answered from its translation cache.
    error / message:
        Exception type name and text when ``outcome == "error"``.
    detail:
        Free-form stage annotations (e.g. the mention-resolution
        strategy), attached via :meth:`PipelineContext.note`; a lane of
        a batch also carries ``batch_id``, ``batch_size`` and
        ``batch_lane``.
    """

    stage: str
    outcome: str = OUTCOME_OK
    wall_s: float = 0.0
    attempt: int = 1
    mode: str = "full"
    cached: bool = False
    error: str | None = None
    message: str | None = None
    detail: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        """JSON-ready view (printed by ``serve-stats`` trace samples)."""
        payload = {
            "schema_version": WIRE_SCHEMA_VERSION,
            "stage": self.stage,
            "outcome": self.outcome,
            "wall_s": self.wall_s,
            "attempt": self.attempt,
            "mode": self.mode,
            "cached": self.cached,
        }
        if self.error is not None:
            payload["error"] = self.error
            payload["message"] = self.message
        if self.detail:
            payload["detail"] = dict(self.detail)
        return payload


class StageTrace:
    """An append-only sequence of :class:`StageRecord`.

    Records are appended as stages start and finalized in place as they
    finish; the list itself only ever grows, so a caller may hold a
    length *mark* and later read ``trace[mark:]`` to see exactly the
    records one pipeline run produced — the serving layer's per-rung
    metrics derivation.
    """

    __slots__ = ("_records",)

    def __init__(self, records=()):
        self._records = list(records)

    def append(self, record: StageRecord) -> None:
        self._records.append(record)

    def __len__(self) -> int:
        return len(self._records)

    def __bool__(self) -> bool:
        return bool(self._records)

    def __iter__(self):
        return iter(self._records)

    def __getitem__(self, index):
        return self._records[index]

    def stage_names(self) -> list[str]:
        """Stage names in execution order (duplicates preserved)."""
        return [record.stage for record in self._records]

    def last(self, stage: str) -> StageRecord | None:
        """The most recent record for ``stage``, or ``None``."""
        for record in reversed(self._records):
            if record.stage == stage:
                return record
        return None

    def to_dicts(self) -> list[dict]:
        """JSON-ready view of every record, in order."""
        return [record.to_dict() for record in self._records]

    def __repr__(self) -> str:
        return f"StageTrace({self.stage_names()!r})"
