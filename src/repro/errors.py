"""Shared exception hierarchy for the ``repro`` library.

Every subsystem raises errors derived from :class:`ReproError` so callers
can catch library failures with a single ``except`` clause while still
being able to distinguish subsystems.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class ShapeError(ReproError):
    """An operation received tensors with incompatible shapes."""


class GradientError(ReproError):
    """Backward pass was invoked in an invalid state."""


class SQLError(ReproError):
    """Base class for SQL substrate errors."""


class SQLParseError(SQLError):
    """The SQL text could not be parsed into a query AST."""


class SQLExecutionError(SQLError):
    """A query could not be executed against the given table."""


class SchemaError(SQLError):
    """A schema definition is invalid or a column does not exist."""


class DataError(ReproError):
    """A dataset record is malformed or a generator was misconfigured."""


class AnnotationError(ReproError):
    """Question annotation or recovery failed."""


class VocabularyError(ReproError):
    """A token could not be mapped through a vocabulary."""


class ModelError(ReproError):
    """A model was used in an invalid state (e.g. decode before fit)."""


class ServingError(ReproError):
    """Base class for serving-layer failures.

    Serving errors carry two pieces of policy-relevant context: the
    pipeline ``stage`` they occurred in (``"annotate"``, ``"translate"``,
    ``"recover"``, or ``None`` when outside a stage) and whether the
    failure is ``retryable`` — the single bit the retry policy reads.
    ``retryable`` is a class default that an instance may override, so a
    fault injector can mint transient and permanent faults from one
    class.
    """

    retryable: bool = False

    def __init__(self, message: str = "", *, stage: str | None = None,
                 retryable: bool | None = None):
        super().__init__(message)
        self.stage = stage
        if retryable is not None:
            self.retryable = retryable


class TransientServingError(ServingError):
    """A failure expected to clear on retry (timeouts, races, blips)."""

    retryable = True


class DeadlineExceeded(ServingError):
    """A request ran out of its latency budget.

    Never retryable: the budget that expired covers the retries too.
    """


class CircuitOpen(ServingError):
    """The circuit breaker is open; the full pipeline was not attempted."""


class Overloaded(ServingError):
    """The service's queue bound refused admission: as many requests as
    ``SchedulerPolicy.max_queued`` allows are already waiting.

    Retryable by definition — the request was never attempted, so a
    client that backs off and resubmits loses nothing.  The serving
    layer resolves the caller's future with a structured ``"failed"``
    envelope carrying this error rather than raising.
    """

    retryable = True


def is_retryable(error: BaseException) -> bool:
    """Whether the retry policy may re-attempt after ``error``.

    Reads the ``retryable`` attribute, so it also honours non-
    :class:`ServingError` exceptions that choose to carry the flag.
    """
    return bool(getattr(error, "retryable", False))
