"""Serving layer: batched, cached, metered, *resilient* NLIDB translation.

The paper's pipeline is a per-question function; this package turns a
trained :class:`~repro.core.nlidb.NLIDB` into a *service* — the form
factor the NLIDB literature (NaLIR, DBPal) deploys — with a
cross-request micro-batching scheduler behind one asynchronous
``submit()`` entry point (concurrent requests coalesce into stage-
level lockstep kernel batches), a bounded LRU translation cache keyed
on table content, within-batch deduplication, a metrics registry, and
a resilience stack (per-request deadlines, bounded retries, a
context-free degradation ladder, and a circuit breaker).  The public
response shape is the :class:`~repro.serving.results.
TranslationResult` envelope; see
:class:`~repro.serving.service.TranslationService` and
:class:`~repro.serving.scheduler.MicroBatchScheduler`.

:mod:`repro.serving.faults` provides a deterministic fault-injection
harness (:class:`FaultyNLIDB`) so every policy is testable without a
flaky model.

The service is the one front door.  An optional queue bound
(``SchedulerPolicy.max_queued``) answers requests past it at once with
a retryable :class:`~repro.errors.Overloaded` envelope, and
:meth:`TranslationService.swap` switches to a new fitted model between
batches without losing a queued request.
"""

from repro.serving.faults import (
    FaultInjector,
    FaultSpec,
    FaultyNLIDB,
    InjectedFault,
    parse_fault_spec,
)
from repro.serving.metrics import MetricsRegistry
from repro.serving.requests import (
    TranslationRequest,
    as_request,
    normalize_question,
)
from repro.serving.resilience import (
    BREAKER_CLOSED,
    BREAKER_HALF_OPEN,
    BREAKER_OPEN,
    CircuitBreaker,
    Deadline,
    ResiliencePolicy,
)
from repro.serving.results import (
    STATUS_DEGRADED,
    STATUS_FAILED,
    STATUS_OK,
    TranslationResult,
    describe_error,
)
from repro.serving.scheduler import (
    MicroBatchScheduler,
    QueueClosed,
    SchedulerPolicy,
)
from repro.serving.service import DEFAULT_CACHE_SIZE, TranslationService

# Re-exported for convenience: the cache key's table component and the
# wire-envelope version every to_dict() stamps.
from repro.pipeline import WIRE_SCHEMA_VERSION
from repro.sqlengine import table_fingerprint

__all__ = [
    "TranslationService", "DEFAULT_CACHE_SIZE",
    "TranslationRequest", "as_request", "normalize_question",
    "TranslationResult", "STATUS_OK", "STATUS_DEGRADED", "STATUS_FAILED",
    "describe_error",
    "ResiliencePolicy", "Deadline", "CircuitBreaker",
    "BREAKER_CLOSED", "BREAKER_OPEN", "BREAKER_HALF_OPEN",
    "FaultSpec", "FaultInjector", "FaultyNLIDB", "InjectedFault",
    "parse_fault_spec",
    "SchedulerPolicy", "MicroBatchScheduler", "QueueClosed",
    "MetricsRegistry", "table_fingerprint", "WIRE_SCHEMA_VERSION",
]
