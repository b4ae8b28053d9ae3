"""The batched, cached, *resilient* serving layer over a trained NLIDB.

The paper evaluates the pipeline one question at a time; a deployed
NLIDB (the DBPal / NaLIR framing) instead sees *traffic*: many
questions, a few hot tables, strict latency expectations — and
failures.  :class:`TranslationService` adds the serving machinery
without touching model semantics:

* one asynchronous entry point — :meth:`TranslationService.submit`
  returns a :class:`concurrent.futures.Future` resolving to a
  :class:`~repro.serving.results.TranslationResult`; :meth:`translate`
  and :meth:`translate_batch` are thin synchronous wrappers, so every
  request drains through the same queue and the same batch executor;
* a **cross-request micro-batching scheduler**
  (:class:`~repro.serving.scheduler.MicroBatchScheduler`): concurrent
  submissions coalesce into stage-level lockstep batches — every
  pending question's undecided columns scored in one classifier pass,
  every pending beam search advanced as one decoder/attention batch
  per step — under a max-wait/max-batch admission policy whose default
  (natural batching) keeps single-request p50 unregressed at low load,
  and an optional queue bound (``SchedulerPolicy.max_queued``) past
  which requests resolve at once with a retryable ``Overloaded``
  envelope;
* a bounded LRU **translation cache** keyed on
  ``(question tokens, table content fingerprint, beam width)`` and
  holding each translation with its rendered SQL — the fingerprint is
  computed once per table value (a :class:`~repro.sqlengine.Table`
  changes content only by ``insert`` or attribute assignment, which
  drop it), read once per request at admission, and travels with the
  request to the annotator's per-table cache, so a hit hashes no table
  and renders no SQL — plus
  within-batch request deduplication (identical concurrent requests
  compute once);
* a :class:`~repro.serving.metrics.MetricsRegistry` with request /
  cache / outcome counters, breaker and cache gauges, and per-stage
  latency histograms;
* the **resilience stack**: per-request deadlines with per-stage budget
  checks, bounded retry with exponential backoff for retryable
  failures, a graceful-degradation ladder (full adversarial annotation
  → context-free matcher-only annotation → structured failure), and a
  circuit breaker that trips after repeated full-path failures and
  serves cache + degraded paths while open;
* an atomic **model swap** (:meth:`TranslationService.swap`) between
  batches: the running batch finishes on the old model, queued
  requests are served by the new one, and the translation cache is
  emptied so no old-model answer outlives the switch.

There is one way to run a request: the
:class:`~repro.pipeline.Pipeline` stage graph over a cohort of
contexts.  A batch's first full attempt runs every breaker-allowed,
unexpired leader as ONE cohort — one column-scoring pass, one
adversarial-localization pass and one lockstep decode over all lanes —
and a solo request is a cohort of one.  Coalescing never changes
results: the cohort kernels compute each lane on its own per-request
shapes, so the SQL is byte-identical to a solo run — pinned by
differential tests and the golden SQL key.  A lane that fails the
shared attempt goes on down the ladder (retry, context-free, failure)
as cohorts of one, with the usual retry, backoff and breaker
accounting; breaker verdicts are settled lane by lane, in order.

Deadline checks (and a fault wrapper's injections) run as per-lane
guards before every stage, so they fail one lane, never its cohort.
Each lane's stage records carry the stage's wall over the cohort and,
in a cohort of two or more, the batch id, size and lane; the per-stage
metrics, the decode histograms, the envelope's ``timings`` and its
``trace`` are all derived from those records.

The public API returns :class:`~repro.serving.results.
TranslationResult` envelopes and **never raises** for per-request
failures.  (The pre-envelope ``raw=True`` escape hatch is gone; callers
needing the bare :class:`~repro.core.nlidb.Translation` read
``result.translation``.)

Thread safety: the substrate's grad-mode flag is thread-local, so
``no_grad`` on a worker thread cannot corrupt training elsewhere, and
the inference kernels keep no per-call state on the model.  What still
needs serializing is the refresh of the per-generation state the model
keeps — the float32 weight snapshots and the column classifier's
word-row caches (one ``[E_word; E_char]`` row per word and dtype,
cleared in place when the generation moves) — and
:meth:`TranslationService.swap`, which must not replace a model
mid-batch.  Model inference is therefore serialized — within a
service by the scheduler's single worker thread, and across services by
the model's own ``inference_lock``, which every batch holds while it
runs.
Cache hits resolve at submission time without touching the queue and
therefore proceed concurrently.  Every returned :class:`Translation`
may be shared between callers — treat it as immutable.  Note that
retry backoff sleeps on the worker thread: inference is serialized
anyway, so a sleeping retry cannot starve work that would otherwise
run, but it does delay the rest of its batch.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future
from dataclasses import asdict, dataclass, field
from typing import Callable

from repro.caching import LRUCache
from repro.core.nlidb import NLIDB, Translation
from repro.errors import (
    CircuitOpen,
    DeadlineExceeded,
    ModelError,
    Overloaded,
    ReproError,
    ServingError,
    is_retryable,
)
from repro.pipeline import (
    OUTCOME_CACHED,
    OUTCOME_SKIPPED,
    StageRecord,
    StageTrace,
    WIRE_SCHEMA_VERSION,
    deadline_guard,
)
from repro.sqlengine import Table, table_fingerprint

from repro.serving.metrics import MetricsRegistry
from repro.serving.requests import TranslationRequest, as_request
from repro.serving.resilience import (
    BREAKER_OPEN,
    CircuitBreaker,
    Deadline,
    ResiliencePolicy,
)
from repro.serving.results import TranslationResult
from repro.serving.scheduler import MicroBatchScheduler, SchedulerPolicy

__all__ = ["TranslationService", "DEFAULT_CACHE_SIZE"]

DEFAULT_CACHE_SIZE = 1024

#: Decode facts a translate record carries, and the histogram each
#: feeds.
_DECODE_FACTS = (("encode_s", "seq2seq.encode"),
                 ("beam_search_s", "seq2seq.beam_search"))


@dataclass
class _Pending:
    """One queued request: what to compute and whom to tell, plus its
    request-level trace, timings and attempt count across every rung."""

    request: TranslationRequest
    key: tuple
    deadline: Deadline
    future: Future = field(default_factory=Future)
    trace: StageTrace = field(default_factory=StageTrace)
    timings: dict = field(default_factory=dict)
    attempts: int = 0


class TranslationService:
    """Serve ``translate`` requests with micro-batching, caching,
    metrics, and graceful degradation.

    Parameters
    ----------
    nlidb:
        A *fitted* :class:`NLIDB` (or a wrapper such as
        :class:`~repro.serving.faults.FaultyNLIDB`).  The service runs
        every batch under the model's ``inference_lock`` and keeps no
        state on the model, so several services may share one.
    cache_size:
        Capacity of the translation LRU cache.
    metrics:
        Optional shared registry; by default each service owns one.
    policy:
        The :class:`ResiliencePolicy` (deadline, retries, degradation,
        breaker thresholds).  Defaults to production-shaped settings.
    breaker:
        Optional pre-built :class:`CircuitBreaker` (tests inject one
        with a fake clock); by default built from ``policy``.
    scheduler_policy:
        The micro-batch admission policy (max batch size, max wait,
        queue bound).  The default is natural batching — dispatch
        whatever is queued whenever the worker is free, capped at 16
        lanes — over an unbounded queue.
    sleep:
        Injectable sleep used for retry backoff.
    """

    def __init__(self, nlidb: NLIDB, cache_size: int = DEFAULT_CACHE_SIZE,
                 metrics: MetricsRegistry | None = None,
                 policy: ResiliencePolicy | None = None,
                 breaker: CircuitBreaker | None = None,
                 scheduler_policy: SchedulerPolicy | None = None,
                 sleep: Callable[[float], None] = time.sleep):
        self.metrics = metrics or MetricsRegistry()
        self.policy = policy or ResiliencePolicy()
        self.breaker = breaker or CircuitBreaker.from_policy(self.policy)
        self._sleep = sleep
        self._cache = LRUCache(maxsize=cache_size)
        self._swap_lock = threading.Lock()
        self._batch_seq = 0
        self.scheduler: MicroBatchScheduler[_Pending] = MicroBatchScheduler(
            self._process_batch, policy=scheduler_policy,
            on_batch_error=self._fail_batch)
        self._install(nlidb)

    def _install(self, nlidb: NLIDB) -> None:
        """Make ``nlidb`` the served model (construction and swap)."""
        if not getattr(nlidb, "_fitted", False):
            raise ModelError("TranslationService needs a fitted NLIDB")
        self.nlidb = nlidb
        # Both ladder rungs execute through the same stage-graph
        # executor; the per-request deadline check is the first guard
        # (a FaultyNLIDB adds its fault guard after it).
        self._pipelines = {
            mode: nlidb.pipeline(mode, guards=(deadline_guard,))
            for mode in ("full", "context_free")
        }

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def submit(self, request, table: Table | None = None,
               beam_width: int | None = None) -> "Future[TranslationResult]":
        """Enqueue one request; the future resolves to its envelope.

        Accepts a :class:`TranslationRequest`, a ``(question, table[,
        beam_width])`` tuple, or the classic ``(question, table)``
        positional form.  Raises :class:`~repro.errors.ReproError`
        immediately for a malformed request (there is nothing to
        enqueue); every *pipeline* failure resolves the future with a
        ``status="failed"`` envelope instead of raising.

        A warm-cache request resolves synchronously and never touches
        the queue; everything else is admitted to the micro-batch
        scheduler, where it coalesces with whatever else is in flight.
        The request's deadline starts now — time spent queued counts
        against its budget, exactly as lock-wait time used to.  A
        request the queue bound refuses resolves at once with a
        retryable ``Overloaded`` envelope.
        """
        if table is not None:
            request = as_request((request, table, beam_width))
        else:
            request = as_request(request)
        future, pending = self._admit(request)
        if pending is not None and not self.scheduler.submit(pending):
            self._refuse(pending)
        return future

    def translate(self, question: str | list[str], table: Table,
                  beam_width: int | None = None) -> TranslationResult:
        """Translate one question into a :class:`TranslationResult`.

        ``submit(...).result()`` — exactly one code path serves
        synchronous and asynchronous callers.  Never raises for
        pipeline failures: a request that exhausts the degradation
        ladder comes back as ``status="failed"`` with a structured
        error.
        """
        return self.submit(question, table, beam_width).result()

    def translate_batch(self, requests) -> list[TranslationResult]:
        """Translate many requests through the shared queue.

        ``requests`` is a sequence of :class:`TranslationRequest` or
        ``(question, table[, beam_width])`` tuples.  Results come back
        in input order, one :class:`TranslationResult` per request —
        a bad or failing request yields a ``"failed"`` envelope at its
        index and never poisons the rest of the batch.  The call is
        enqueued atomically when the queue has room for it, so its
        requests coalesce into as few micro-batches as the admission
        policy allows (mixed tables included — the coalesced kernels
        accept heterogeneous schemas).  It blocks for its results
        anyway, so under a ``max_queued`` bound it enqueues what fits
        and waits for room as the queue drains instead of refusing the
        rest; concurrent :meth:`submit` calls that find the queue full
        are still refused.
        """
        items = list(requests)
        self.metrics.increment("batches")
        self.metrics.increment("batch_requests", len(items))
        results: list[TranslationResult | None] = [None] * len(items)
        futures: list[tuple[int, Future]] = []
        pendings: list[_Pending] = []
        for i, item in enumerate(items):
            try:
                request = as_request(item)
            except ReproError as exc:
                self.metrics.increment("bad_requests")
                results[i] = TranslationResult.from_failure(exc)
                continue
            future, pending = self._admit(request)
            futures.append((i, future))
            if pending is not None:
                pendings.append(pending)
        self.scheduler.submit_waiting(pendings)
        for i, future in futures:
            results[i] = future.result()
        return results  # fully populated: every index was served

    def close(self) -> None:
        """Stop admitting requests; in-flight work still completes."""
        self.scheduler.close()

    def swap(self, nlidb: NLIDB) -> None:
        """Serve ``nlidb`` from the next batch on.

        Waits for the running batch, which finishes on the old model
        and caches its results before the switch; no new batch starts
        meanwhile.  Then it installs the new model's pipelines and
        empties the translation cache, so no old-model answer is served once
        ``swap`` returns.  Queued requests stay queued and are served by
        the new model; none is lost.  Raises :class:`ModelError`, and
        changes nothing, when ``nlidb`` is not fitted.
        """
        with self._swap_lock, self.nlidb.inference_lock:
            self._install(nlidb)
            self._cache.clear()
        self.metrics.increment("swaps")

    def fingerprint(self, table: Table) -> str:
        """The cache-key fingerprint of a table (content hash)."""
        return table_fingerprint(table)

    def stats(self) -> dict:
        """Metrics snapshot plus cache, breaker, scheduler, and policy
        state.  ``schema_version`` names the wire envelope every
        ``to_dict`` in the system emits."""
        self.metrics.set_gauge("breaker_state", self.breaker.state_gauge())
        self.metrics.set_gauge("cache_size", float(len(self._cache)))
        snapshot = self.metrics.snapshot()
        snapshot["schema_version"] = WIRE_SCHEMA_VERSION
        snapshot["cache"] = {
            "size": len(self._cache),
            "maxsize": self._cache.maxsize,
            "evictions": self._cache.evictions,
            "hits": self._cache.hits,
            "misses": self._cache.misses,
            "hit_rate": self._cache.hit_rate(),
        }
        snapshot["breaker"] = self.breaker.snapshot()
        snapshot["scheduler"] = self.scheduler.stats()
        snapshot["policy"] = asdict(self.policy)
        # The annotator's fingerprint-keyed schema-encoding cache, when
        # the wrapped NLIDB has one (fault wrappers delegate; test stubs
        # without an annotator are skipped).
        annotator = getattr(self.nlidb, "annotator", None)
        schema_stats = getattr(annotator, "schema_cache_stats", None)
        if schema_stats is not None:
            snapshot["schema_cache"] = schema_stats()
        return snapshot

    def clear_cache(self) -> None:
        """Drop every cached translation (metrics are kept)."""
        self._cache.clear()

    # ------------------------------------------------------------------
    # Admission (caller thread)
    # ------------------------------------------------------------------

    def _admit(self, request: TranslationRequest,
               ) -> tuple[Future, _Pending | None]:
        """Count the request and either resolve it warm or queue it."""
        self.metrics.increment("requests")
        key = (request.question, request.fingerprint,
               self._resolve_width(request.beam_width))
        future: Future = Future()
        cached = self._cache.get(key)
        if cached is not None:
            self.metrics.increment("cache_hits")
            future.set_result(self._finish(self._cache_hit(cached)))
            return future, None
        return future, _Pending(request=request, key=key,
                                deadline=Deadline(self.policy.deadline_s),
                                future=future)

    def _refuse(self, pending: _Pending) -> None:
        """Resolve a request the queue bound turned away."""
        # It missed the cache at admission and will never reach the
        # batch executor, so it is counted as a miss here.
        self.metrics.increment("cache_misses")
        self.metrics.increment("rejections")
        error = Overloaded(
            f"queue full ({self.scheduler.policy.max_queued} waiting);"
            " retry with backoff", stage="queue")
        pending.future.set_result(
            self._finish(TranslationResult.from_failure(error)))

    # ------------------------------------------------------------------
    # Batch execution (scheduler worker thread)
    # ------------------------------------------------------------------

    def _process_batch(self, pendings: list[_Pending]) -> None:
        """Serve one drained micro-batch; resolves every lane's future.

        Order of business: re-check the cache (another lane may have
        warmed a key since admission), dedupe identical requests into
        leaders + followers, run the first full attempt of every
        breaker-allowed, unexpired leader as one cohort, walk each
        leader in order down the ladder from wherever it stands, then
        mirror leader outcomes onto followers.

        The whole batch runs under the served model's
        ``inference_lock``, taken under the swap lock so that a batch
        never starts on a model a waiting :meth:`swap` is replacing.
        """
        with self._swap_lock:
            lock = self.nlidb.inference_lock
            lock.acquire()
        try:
            self._batch_seq += 1
            work: list[_Pending] = []
            for p in pendings:
                cached = self._cache.get(p.key, count=False)
                if cached is not None:
                    # Counted as a hit so hits + misses == requests
                    # stays exact under concurrency; the LRU's own
                    # counters saw this request once at admission, so
                    # the re-check is uncounted there.
                    self.metrics.increment("cache_hits")
                    if p.future.set_running_or_notify_cancel():
                        p.future.set_result(
                            self._finish(self._cache_hit(cached)))
                    continue
                self.metrics.increment("cache_misses")
                if p.future.set_running_or_notify_cancel():
                    work.append(p)

            leaders: dict[tuple, _Pending] = {}
            followers: dict[tuple, list[_Pending]] = {}
            for p in work:
                if p.key in leaders:
                    followers.setdefault(p.key, []).append(p)
                    self.metrics.increment("deduplicated")
                else:
                    leaders[p.key] = p

            shared = [p for p in leaders.values()
                      if not p.deadline.expired() and self.breaker.allow()]
            firsts = dict(zip([p.key for p in shared],
                              self._run_shared(shared)))
            for key, p in leaders.items():
                self._serve(p, firsts.get(key))
            for key, dupes in followers.items():
                leader_future = leaders[key].future
                for p in dupes:
                    self._mirror(leader_future, p.future)
        finally:
            lock.release()

    def _run_shared(self, lanes: list[_Pending]) -> list:
        """The first full attempt of every lane, as ONE cohort.

        Returns each lane's outcome (its translation or the error that
        failed it).  A cohort of two or more stamps its batch identity
        on every lane's records and feeds the coalescing counters.
        """
        if not lanes:
            return []
        for p in lanes:
            p.attempts = 1
        coalesced = len(lanes) > 1
        outcomes = self._run_pipeline(
            lanes, mode="full", attempt=1,
            batch_id=self._batch_seq if coalesced else None)
        if coalesced:
            self.metrics.increment("coalesced_batches")
            for outcome in outcomes:
                self.metrics.increment(
                    "coalesce_fallbacks" if isinstance(outcome, ReproError)
                    else "coalesced_requests")
        return outcomes

    def _serve(self, p: _Pending, first=None) -> None:
        """One lane through the degradation ladder; resolves its future."""
        try:
            result, cacheable = self._compute_resilient(p, first)
            if cacheable and result.translation is not None:
                # The rendered SQL rides along, so a hit renders none.
                self._cache.put(p.key, (result.translation, result.sql))
            p.future.set_result(self._finish(result))
        except BaseException as exc:  # noqa: BLE001 — future must resolve
            if not p.future.done():
                p.future.set_exception(exc)

    @staticmethod
    def _mirror(source: Future, target: Future) -> None:
        """Copy a resolved leader future onto a deduplicated follower.

        Both futures entered RUNNING during the cache re-check, so the
        leader's outcome (already resolved, same thread) just copies
        over."""
        exc = source.exception()
        if exc is not None:
            target.set_exception(exc)
        else:
            target.set_result(source.result())

    def _fail_batch(self, pendings: list[_Pending],
                    exc: BaseException) -> None:
        """Last-resort resolution if the batch executor itself raised."""
        for p in pendings:
            if not p.future.done():
                try:
                    p.future.set_exception(exc)
                except BaseException:
                    pass

    @staticmethod
    def _cache_hit(cached: tuple[Translation, str | None],
                   ) -> TranslationResult:
        translation, sql = cached
        record = StageRecord(stage="cache", outcome=OUTCOME_CACHED,
                             cached=True)
        return TranslationResult.from_translation(translation, sql=sql,
                                                  cached=True,
                                                  trace=(record,))

    def _finish(self, result: TranslationResult) -> TranslationResult:
        self.metrics.increment(f"served_{result.status}")
        return result

    def _compute_resilient(self, p: _Pending, first=None,
                           ) -> tuple[TranslationResult, bool]:
        """Walk the degradation ladder; always return an envelope.

        ``first`` is the outcome of the request's first full attempt
        when it already ran in the batch's shared cohort; the ladder
        goes on from there.  Returns ``(result, cacheable)`` — only
        translations produced by the *full* pipeline are cacheable.
        Degraded results are served but never cached, so repeat traffic
        re-attempts the full path once the underlying failure clears.

        The request-level ``p.trace`` accumulates across every rung and
        retry attempt; each rung's slice also feeds the per-stage
        metrics and the envelope's ``timings``.
        """
        failure: BaseException | None = None
        if first is None:
            allowed = self.breaker.allow()
        else:
            # The shared attempt was admitted by the breaker.  A failure
            # settled after an earlier lane of this batch opened it is a
            # short circuit, exactly as it would have been in lane order.
            allowed = (not isinstance(first, ReproError)
                       or self.breaker.state != BREAKER_OPEN)

        # Rung 1: the full adversarial pipeline, behind the breaker.
        if allowed:
            try:
                translation = self._attempt_full(p, first)
                self.breaker.record_success()
                return TranslationResult.from_translation(
                    translation, attempts=p.attempts, timings=p.timings,
                    trace=tuple(p.trace)), True
            except ReproError as exc:
                failure = exc
                self.breaker.record_failure()
                self.metrics.increment("full_path_failures")
                if isinstance(exc, DeadlineExceeded):
                    # No budget left for a fallback rung either.
                    self.metrics.increment("deadline_exceeded")
                    return TranslationResult.from_failure(
                        exc, attempts=p.attempts, timings=p.timings,
                        trace=tuple(p.trace)), False
        else:
            self.metrics.increment("breaker_short_circuits")
            failure = CircuitOpen(
                "circuit breaker open: full pipeline skipped")
            p.trace.append(StageRecord(
                stage="full", outcome=OUTCOME_SKIPPED,
                detail={"reason": "circuit breaker open"}))

        # Rung 2: context-free matcher-only annotation (cheap, model-
        # independent detection; the paper's exact/edit/semantic case).
        if self.policy.degradation and not p.deadline.expired():
            [outcome] = self._run_pipeline([p], mode="context_free",
                                           attempt=1)
            if not isinstance(outcome, ReproError):
                self.metrics.increment("degraded_fallbacks")
                return TranslationResult.from_translation(
                    outcome, degraded=True, cause=failure,
                    attempts=p.attempts, timings=p.timings,
                    trace=tuple(p.trace)), False
            self.metrics.increment("degraded_failures")
            if isinstance(outcome, DeadlineExceeded):
                self.metrics.increment("deadline_exceeded")
            failure = outcome

        # Rung 3: structured failure — the envelope still comes back.
        return TranslationResult.from_failure(
            failure if failure is not None
            else ServingError("degradation disabled and full path failed"),
            attempts=p.attempts, timings=p.timings,
            trace=tuple(p.trace)), False

    def _attempt_full(self, p: _Pending, outcome=None) -> Translation:
        """The full pipeline with bounded retry on retryable failures.

        ``outcome`` is the first attempt's, when the shared cohort
        already ran it; each retry is a cohort of one.
        """
        retries = 0
        while True:
            if outcome is None:
                p.attempts += 1
                [outcome] = self._run_pipeline([p], mode="full",
                                               attempt=p.attempts)
            if not isinstance(outcome, ReproError):
                return outcome
            if (isinstance(outcome, DeadlineExceeded)
                    or not is_retryable(outcome)
                    or retries >= self.policy.max_retries):
                raise outcome
            retries += 1
            self.metrics.increment("retries")
            delay = min(self.policy.backoff_delay(retries),
                        p.deadline.remaining())
            if delay > 0:
                self._sleep(delay)
            outcome = None

    def _run_pipeline(self, lanes: list[_Pending], *, mode: str,
                      attempt: int, batch_id: int | None = None) -> list:
        """Run one pipeline variant over fresh contexts, one per lane.

        The contexts get fresh artifacts (a retry must recompute) but
        share each request's ``trace``; every lane's slice of it is
        absorbed into metrics and that lane's ``timings`` whether the
        lane completed or failed.  Returns each lane's translation or
        the error that failed it.
        """
        # Caller holds the model's inference lock (the weight snapshots
        # are shared, so inference must not interleave).
        prefix = "" if mode == "full" else "degraded."
        ctxs = [self.nlidb.context(list(p.request.question), p.request.table,
                                   mode=mode, beam_width=p.request.beam_width,
                                   deadline=p.deadline, trace=p.trace,
                                   attempt=attempt,
                                   table_key=p.request.fingerprint)
                for p in lanes]
        marks = [len(p.trace) for p in lanes]
        self._pipelines[mode].run_cohort(ctxs, batch_id=batch_id)
        outcomes = []
        for p, ctx, mark in zip(lanes, ctxs, marks):
            records = p.trace[mark:]
            self._absorb(records, prefix, p.timings)
            exc = ctx.failure
            if exc is not None:
                if (exc.stage == "annotate"
                        and not isinstance(exc, DeadlineExceeded)):
                    self.metrics.increment(prefix + "annotation_failures")
                outcomes.append(exc)
                continue
            translation: Translation = ctx.artifacts["translation"]
            translation.trace = tuple(records)
            if translation.error is not None:
                self.metrics.increment(prefix + "recovery_failures")
            outcomes.append(translation)
        return outcomes

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------

    def _absorb(self, records, prefix: str,
                timings: dict[str, float]) -> None:
        """Fold one run's stage records into metrics and timings.

        Deadline-refused stages are excluded: the deadline fires
        *before* a stage starts, so no work was timed.  Sub-stages
        (dotted names) feed the latency histograms but stay out of the
        envelope's top-level ``timings``.  A translate record's decode
        facts feed the ``seq2seq.encode`` / ``seq2seq.beam_search``
        histograms, one observation per decoded request.
        """
        for record in records:
            if record.error == "DeadlineExceeded":
                continue
            name = prefix + record.stage
            self.metrics.observe(name, record.wall_s)
            if "." not in record.stage:
                # Accumulate across retries so a request's timings sum
                # to its real pipeline time.
                timings[name] = timings.get(name, 0.0) + record.wall_s
            for fact, histogram in _DECODE_FACTS:
                if fact in record.detail:
                    self.metrics.observe(histogram, record.detail[fact])

    def _resolve_width(self, beam_width: int | None) -> int | None:
        if beam_width is not None:
            return beam_width
        # Explicitly passing the configured default must share the
        # defaulted entry, so resolve before keying.
        translator = getattr(self.nlidb, "translator", None)
        return getattr(getattr(translator, "config", None),
                       "beam_width", None)
