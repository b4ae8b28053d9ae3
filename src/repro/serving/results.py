"""The public response envelope of the serving layer.

``TranslationService.translate`` (and element-wise
``translate_batch``) return a :class:`TranslationResult` — never raise
— so one bad request can no longer poison a batch or a caller.  The
envelope classifies every outcome into three statuses:

* ``"ok"`` — the full adversarial pipeline ran and recovered SQL;
* ``"degraded"`` — a fallback rung (context-free matcher-only
  annotation) produced the SQL after the full path failed or was
  short-circuited by the open breaker;
* ``"failed"`` — no SQL: a structured error describes which stage
  failed and whether the failure was retryable.

``status == "ok" or status == "degraded"`` iff ``sql is not None`` —
clients branch on one field.  The raw :class:`~repro.core.nlidb.
Translation` (when any pipeline rung completed) rides along for
callers that need annotations or the recovered query object.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.nlidb import Translation
from repro.pipeline import OUTCOME_ERROR, WIRE_SCHEMA_VERSION, StageRecord

__all__ = ["TranslationResult", "STATUS_OK", "STATUS_DEGRADED",
           "STATUS_FAILED", "describe_error"]

STATUS_OK = "ok"
STATUS_DEGRADED = "degraded"
STATUS_FAILED = "failed"


def describe_error(error: BaseException) -> dict:
    """A JSON-ready description of an exception.

    ``stage`` and ``retryable`` are read off the exception when it
    carries them (:class:`~repro.errors.ServingError` always does;
    the service annotates other pipeline exceptions with ``stage``).
    """
    return {
        "type": type(error).__name__,
        "message": str(error),
        "stage": getattr(error, "stage", None),
        "retryable": bool(getattr(error, "retryable", False)),
    }


@dataclass
class TranslationResult:
    """One served request's outcome (the documented public shape).

    Attributes
    ----------
    status:
        ``"ok"`` | ``"degraded"`` | ``"failed"``.
    sql:
        The recovered SQL text, or ``None`` for failed requests.
    translation:
        The underlying :class:`Translation` from whichever ladder rung
        completed, or ``None`` when every rung raised.  Shared with the
        cache — treat as immutable.
    error:
        ``None`` for ``"ok"``; otherwise :func:`describe_error` output.
        A ``"degraded"`` result keeps the error that knocked the full
        path over, so clients can see *why* they got the fallback.
    attempts:
        Full-pipeline attempts made (0 for cache hits and
        breaker-short-circuited requests).
    timings:
        Per-stage wall seconds for this request; degraded-rung stages
        are prefixed ``"degraded."``.
    cached:
        Whether the translation came from the warm cache.
    trace:
        Every :class:`~repro.pipeline.StageRecord` the request produced,
        across all ladder rungs and retry attempts, in execution order.
        Never empty: even a cache hit or a pre-pipeline failure records
        one entry.
    """

    status: str
    sql: str | None = None
    translation: Translation | None = None
    error: dict | None = None
    attempts: int = 0
    timings: dict[str, float] = field(default_factory=dict)
    cached: bool = False
    trace: tuple = ()

    @property
    def ok(self) -> bool:
        return self.status == STATUS_OK

    def to_dict(self) -> dict:
        """JSON-serializable view (drops the live objects).

        ``schema_version`` stamps the versioned wire envelope (see
        DESIGN.md, "Wire schema"); trace records carry it too, so a
        consumer can validate either level independently.
        """
        return {
            "schema_version": WIRE_SCHEMA_VERSION,
            "status": self.status,
            "sql": self.sql,
            "error": self.error,
            "attempts": self.attempts,
            "timings": dict(self.timings),
            "cached": self.cached,
            "trace": [record.to_dict() for record in self.trace],
        }

    # ------------------------------------------------------------------
    # Constructors used by the service
    # ------------------------------------------------------------------

    @classmethod
    def from_translation(cls, translation: Translation, *,
                         degraded: bool = False,
                         cause: BaseException | None = None,
                         attempts: int = 0,
                         timings: dict[str, float] | None = None,
                         cached: bool = False,
                         trace=None,
                         sql: str | None = None) -> "TranslationResult":
        """Envelope a completed pipeline rung.

        A translation whose recovery failed (``query is None``) is a
        ``"failed"`` result — the service produced no SQL — with the
        recovery message as the structured error.  ``trace`` defaults
        to the translation's own run trace; ``sql`` to the query
        rendered afresh (a cache hit passes the SQL it stored).
        """
        timings = timings or {}
        trace = tuple(trace) if trace is not None else \
            tuple(getattr(translation, "trace", ()))
        if translation.query is None:
            error = {"type": "RecoveryError",
                     "message": translation.error or "recovery failed",
                     "stage": "recover", "retryable": False}
            return cls(status=STATUS_FAILED, sql=None,
                       translation=translation, error=error,
                       attempts=attempts, timings=timings, cached=cached,
                       trace=trace)
        status = STATUS_DEGRADED if degraded else STATUS_OK
        error = describe_error(cause) if degraded and cause is not None \
            else None
        if sql is None:
            sql = translation.query.to_sql()
        return cls(status=status, sql=sql,
                   translation=translation, error=error,
                   attempts=attempts, timings=timings, cached=cached,
                   trace=trace)

    @classmethod
    def from_failure(cls, error: BaseException, *, attempts: int = 0,
                     timings: dict[str, float] | None = None,
                     trace=None) -> "TranslationResult":
        """Envelope a request for which every ladder rung raised.

        When no pipeline stage ever ran (a malformed request, say), a
        synthetic record keeps the every-result-has-a-trace invariant.
        """
        trace = tuple(trace) if trace is not None else ()
        if not trace:
            trace = (StageRecord(
                stage=getattr(error, "stage", None) or "request",
                outcome=OUTCOME_ERROR, error=type(error).__name__,
                message=str(error)),)
        return cls(status=STATUS_FAILED, sql=None, translation=None,
                   error=describe_error(error), attempts=attempts,
                   timings=timings or {}, trace=trace)
