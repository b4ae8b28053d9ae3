"""Deterministic fault injection for the serving stack.

Every resilience policy in :mod:`repro.serving` — retries, deadlines,
the degradation ladder, the circuit breaker — is only trustworthy if
it is tested against *controlled* failures.  Real models fail rarely
and unreproducibly; this module wraps an :class:`~repro.core.nlidb.
NLIDB` so each pipeline stage can be made to fail or stall on a
precise, seeded schedule:

>>> plan = [FaultSpec(stage="annotate", kind="transient", count=2)]
>>> flaky = FaultyNLIDB(nlidb, FaultInjector(plan))
>>> service = TranslationService(flaky, policy=policy)

The first two ``annotate`` stage entries raise a retryable
:class:`InjectedFault`; everything after succeeds — exactly the shape
a retry policy must absorb.  ``kind="permanent"`` faults are
non-retryable (they exercise the ladder and the breaker), and
``kind="latency"`` sleeps without raising (it exercises deadlines).

The plan runs as a pipeline guard, once per lane before each top-level
stage, so a faulty model coalesces like any other: in a 4-lane cohort
a fault fails the one lane it hits, and the other three run on.
Probabilistic plans use a private seeded :class:`random.Random`, so a
fault matrix is reproducible run-over-run and machine-over-machine.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass
from typing import Callable, Sequence

from repro.errors import ServingError

__all__ = ["FaultSpec", "InjectedFault", "FaultInjector", "FaultyNLIDB",
           "STAGES", "parse_fault_spec"]

#: The pipeline stages a fault can target, in execution order.
STAGES = ("annotate", "translate", "recover")

_KINDS = ("transient", "permanent", "latency")


class InjectedFault(ServingError):
    """A failure manufactured by the fault harness.

    ``retryable`` follows the spec's kind: transient faults are
    retryable, permanent ones are not.
    """


@dataclass(frozen=True)
class FaultSpec:
    """One rule of a fault plan.

    Attributes
    ----------
    stage:
        Which pipeline stage to intercept (one of :data:`STAGES`).
    kind:
        ``"transient"`` (retryable error), ``"permanent"``
        (non-retryable error), or ``"latency"`` (sleep, no error).
    count:
        Fire only for the first ``count`` matching calls; ``None``
        fires forever.  Counting is per-spec, so two specs on the same
        stage burn down independently.
    probability:
        Fire with this seeded probability per matching call (applied
        after the ``count`` budget check); ``None`` means always.
    latency_s:
        Sleep duration for ``kind="latency"``.
    mode:
        Restrict faults to one annotation mode (``"full"`` or
        ``"context_free"``); ``None`` matches any.  Every stage of a
        pipeline run carries the run's mode, so this is how the ladder
        tests break the full rung while leaving the context-free rung
        healthy.
    message:
        Override the generated error message.
    """

    stage: str
    kind: str = "transient"
    count: int | None = None
    probability: float | None = None
    latency_s: float = 0.0
    mode: str | None = None
    message: str = ""

    def __post_init__(self) -> None:
        if self.stage not in STAGES:
            raise ValueError(f"unknown stage {self.stage!r}; "
                             f"expected one of {STAGES}")
        if self.kind not in _KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; "
                             f"expected one of {_KINDS}")
        if self.count is not None and self.count < 1:
            raise ValueError("count must be >= 1 or None")
        if self.probability is not None \
                and not 0.0 <= self.probability <= 1.0:
            raise ValueError("probability must be in [0, 1]")


def parse_fault_spec(text: str) -> FaultSpec:
    """Parse the CLI shorthand ``stage:kind[:count][:latency_s]``.

    Examples: ``annotate:transient:2``, ``translate:permanent``,
    ``annotate:latency:3:0.2`` (three calls stalled 200 ms each).
    """
    parts = text.split(":")
    if not 1 <= len(parts) <= 4:
        raise ValueError(f"cannot parse fault spec {text!r}")
    stage = parts[0]
    kind = parts[1] if len(parts) > 1 and parts[1] else "transient"
    count = int(parts[2]) if len(parts) > 2 and parts[2] else None
    latency = float(parts[3]) if len(parts) > 3 and parts[3] else 0.0
    return FaultSpec(stage=stage, kind=kind, count=count, latency_s=latency)


class FaultInjector:
    """Executes a fault plan; thread-safe and fully deterministic.

    One injector may back several wrappers; per-spec fire counts and
    the seeded RNG are shared so a plan means the same thing whether a
    service calls the model from one thread or eight.
    """

    def __init__(self, specs: Sequence[FaultSpec], seed: int = 0,
                 sleep: Callable[[float], None] = time.sleep):
        self.specs = list(specs)
        self._rng = random.Random(seed)
        self._sleep = sleep
        self._lock = threading.Lock()
        self._fired = [0] * len(self.specs)
        self._calls = {stage: 0 for stage in STAGES}

    def before(self, stage: str, mode: str | None = None) -> None:
        """Apply the plan to one stage entry: maybe sleep, maybe raise."""
        to_sleep = 0.0
        error: InjectedFault | None = None
        with self._lock:
            self._calls[stage] = self._calls.get(stage, 0) + 1
            for i, spec in enumerate(self.specs):
                if spec.stage != stage:
                    continue
                if spec.mode is not None and mode is not None \
                        and spec.mode != mode:
                    continue
                if spec.count is not None and self._fired[i] >= spec.count:
                    continue
                if spec.probability is not None \
                        and self._rng.random() >= spec.probability:
                    continue
                self._fired[i] += 1
                if spec.kind == "latency":
                    to_sleep += spec.latency_s
                    continue
                message = spec.message or (
                    f"injected {spec.kind} fault in {stage!r} "
                    f"(firing {self._fired[i]})")
                error = InjectedFault(message, stage=stage,
                                      retryable=spec.kind == "transient")
                break  # first raising spec wins; latency already applied
        if to_sleep:
            self._sleep(to_sleep)
        if error is not None:
            raise error

    def stats(self) -> dict:
        """Calls seen and faults fired, for assertions and reports."""
        with self._lock:
            return {
                "calls": dict(self._calls),
                "fired": [
                    {"stage": spec.stage, "kind": spec.kind,
                     "mode": spec.mode, "fired": fired}
                    for spec, fired in zip(self.specs, self._fired)
                ],
            }


class FaultyNLIDB:
    """An :class:`NLIDB` lookalike with faults injected before stages.

    Pipeline execution gets faults via a :class:`~repro.pipeline.
    FaultGuard` (see :meth:`pipeline`); ``annotate`` and ``recover``
    are also intercepted for direct callers.  Every other attribute
    (``translator``, ``config``, ``header_tokens``, ``_fitted``, …) is
    delegated, so the wrapper is a drop-in argument to
    :class:`~repro.serving.service.TranslationService`.
    """

    def __init__(self, nlidb, injector: FaultInjector):
        self._nlidb = nlidb
        self.injector = injector

    def pipeline(self, mode: str = "full", guards=()):
        """The wrapped model's stage graph, plus the fault guard.

        The injector runs last before each stage — after the caller's
        deadline check, so a fault never fires on a lane whose budget
        is already spent.
        """
        from repro.pipeline import FaultGuard
        return self._nlidb.pipeline(
            mode, guards=tuple(guards) + (FaultGuard(self.injector),))

    def annotate(self, question, table, mode: str = "full"):
        self.injector.before("annotate", mode=mode)
        return self._nlidb.annotate(question, table, mode=mode)

    def recover(self, source, predicted, annotation):
        self.injector.before("recover")
        return self._nlidb.recover(source, predicted, annotation)

    def __getattr__(self, name):
        return getattr(self._nlidb, name)
