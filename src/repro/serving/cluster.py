"""The sharded serving cluster: front door, worker replicas, swaps.

A single :class:`~repro.serving.service.TranslationService` is one
queue, one translation cache, one schema cache.  The ROADMAP's
"millions of users" rung needs a *fleet* of them behind one door —
this module turns N fitted NLIDBs (or one shared model) into that
fleet without touching model semantics:

* :class:`ClusterService` — the **front door**.  Same surface as the
  single service (``submit()`` → ``Future[TranslationResult]``,
  ``translate`` / ``translate_batch`` wrappers) plus **admission
  control**: a bounded global in-flight queue; requests beyond
  ``ClusterPolicy.max_in_flight`` are refused instantly with a
  structured :class:`~repro.errors.Overloaded` envelope instead of
  growing an unbounded backlog (queue-depth backpressure).
* a **consistent-hash router**
  (:class:`~repro.serving.router.RendezvousRouter`): requests shard on
  the table-content fingerprint, so each replica's
  :class:`~repro.core.schema.SchemaEncoding` and translation caches
  stay hot for its shard, and membership changes move a minimal key
  fraction.
* **worker replicas** (:class:`Replica`) — each owns a full
  :class:`TranslationService` (NLIDB + micro-batch scheduler +
  resilience ladder).  Per-replica health is derived from the
  replica's circuit breaker; a request whose owner is open or
  draining **fails over** along the rendezvous ranking — landing on
  the replica that would inherit the keys anyway.
* **zero-downtime blue/green swap** (:meth:`ClusterService.swap`):
  build a standby replica set around a new model (e.g. loaded via
  :func:`~repro.core.persistence.load_nlidb`), warm each standby
  replica's schema cache from the live shard's hottest fingerprints,
  then atomically switch the active set and drain the old one.
  In-flight requests complete on the replicas that admitted them;
  requests racing the switch re-route to the new set — nothing is
  dropped (pinned by the swap differential test).

Every served envelope is stamped with its routing identity (wire
schema v3): ``TranslationResult.replica_id`` / ``shard_key`` plus a
``route`` stage record prepended to the trace carrying the replica,
shard key, generation color, and whether the request failed over.

Concurrency note: the substrate's grad-mode flag is thread-local, so
grad state no longer forces process-wide serialization — what does is
the mutable inference state replicas share when given the same model
object: the per-model inference arenas and generation-cached float32
weight snapshots.  All replica services therefore share one model
lock.  What the cluster scales is everything around the kernels:
per-shard cache hotness, queue isolation, failover, and model
rollover; true CPU parallelism would come from running replicas (each
with its own model instance, hence its own arenas) in separate
processes behind the same router, which this layer's shard-key
contract is designed to allow.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from concurrent.futures import Future
from dataclasses import asdict, dataclass

from repro.core.nlidb import NLIDB
from repro.errors import ModelError, Overloaded, ReproError
from repro.pipeline import WIRE_SCHEMA_VERSION, StageRecord
from repro.serving.metrics import MetricsRegistry
from repro.serving.requests import TranslationRequest, as_request
from repro.serving.resilience import BREAKER_OPEN
from repro.serving.results import TranslationResult
from repro.serving.router import RendezvousRouter
from repro.serving.scheduler import QueueClosed
from repro.serving.service import DEFAULT_CACHE_SIZE, TranslationService
from repro.sqlengine import Table

__all__ = ["ClusterPolicy", "Replica", "ClusterService"]

#: Blue/green generation labels; ``generation % 2`` indexes this.
_COLORS = ("blue", "green")


@dataclass(frozen=True)
class ClusterPolicy:
    """The cluster front door's knobs, one frozen bundle.

    Attributes
    ----------
    max_in_flight:
        Global bound on admitted-but-unresolved requests across every
        replica queue.  Admission beyond it is refused with
        :class:`~repro.errors.Overloaded` — backpressure by rejection,
        never by unbounded queueing.
    failover:
        Whether requests re-route along the rendezvous ranking when
        their owner replica is unhealthy (breaker open or draining).
    warm_top_k:
        How many of a live shard's hottest fingerprints are warmed
        into the standby replica's schema cache before a swap switch.
    tracked_tables:
        Per-replica bound on the hot-fingerprint tracker backing
        warming (an LRU of ``(fingerprint, table, count)``).
    """

    max_in_flight: int = 64
    failover: bool = True
    warm_top_k: int = 8
    tracked_tables: int = 64

    def __post_init__(self) -> None:
        if self.max_in_flight < 1:
            raise ValueError("max_in_flight must be >= 1")
        if self.warm_top_k < 0:
            raise ValueError("warm_top_k must be >= 0")
        if self.tracked_tables < 1:
            raise ValueError("tracked_tables must be >= 1")


class Replica:
    """One worker: a :class:`TranslationService` plus shard-local state.

    ``replica_id`` is the *shard* identity ("r0", "r1", …) — stable
    across blue/green swaps so the router's key → shard assignment
    never reshuffles on rollover.  The hot-table tracker records which
    fingerprints this shard actually serves; it is what a swap reads
    to warm the standby generation's schema cache.
    """

    __slots__ = ("replica_id", "service", "draining", "_hot", "_hot_lock",
                 "_tracked")

    def __init__(self, replica_id: str, service: TranslationService,
                 tracked_tables: int = 64):
        self.replica_id = replica_id
        self.service = service
        self.draining = False
        self._tracked = tracked_tables
        # fingerprint -> [request_count, table]; LRU-bounded.
        self._hot: OrderedDict[str, list] = OrderedDict()
        self._hot_lock = threading.Lock()

    def healthy(self) -> bool:
        """Routable right now: not draining, breaker not open.

        Half-open counts as healthy — the breaker's own probe
        admission decides how much traffic the full path sees, and the
        degraded ladder still answers behind it.
        """
        return not self.draining \
            and self.service.breaker.state != BREAKER_OPEN

    def observe(self, shard_key: str, table: Table) -> None:
        """Count one routed request against the shard's hot tracker."""
        with self._hot_lock:
            entry = self._hot.get(shard_key)
            if entry is None:
                self._hot[shard_key] = [1, table]
                if len(self._hot) > self._tracked:
                    self._hot.popitem(last=False)
            else:
                entry[0] += 1
                self._hot.move_to_end(shard_key)

    def hottest(self, k: int) -> list[tuple[str, Table]]:
        """The ``k`` most-requested ``(fingerprint, table)`` pairs."""
        with self._hot_lock:
            ranked = sorted(self._hot.items(), key=lambda kv: -kv[1][0])
        return [(fp, entry[1]) for fp, entry in ranked[:k]]

    def stats(self) -> dict:
        """Health summary plus the wrapped service's full snapshot."""
        return {
            "healthy": self.healthy(),
            "draining": self.draining,
            "hot_tables": len(self._hot),
            "service": self.service.stats(),
        }


class ClusterService:
    """N replicas, one ``submit()``: the horizontally sharded front door.

    Parameters
    ----------
    models:
        A single *fitted* :class:`NLIDB` shared by every replica, or a
        sequence of fitted NLIDBs, one per replica (separate models
        give each shard its own schema/translation caches — the
        configuration the cluster benchmark measures).
    n_replicas:
        Replica count when ``models`` is a single shared model
        (ignored — and validated — when a sequence is passed).
    policy:
        The :class:`ClusterPolicy` (admission bound, failover, warm
        settings).
    router_factory:
        ``callable(ids) -> router``; defaults to
        :class:`~repro.serving.router.RendezvousRouter`.  The
        benchmark passes a seeded
        :class:`~repro.serving.router.RandomRouter` as the
        no-affinity control.
    cache_size / resilience / scheduler_policy / metrics:
        Forwarded to each replica's :class:`TranslationService`
        (``metrics`` is the *cluster's* registry; every replica owns
        its own service registry so per-shard cache hit rates stay
        separable).
    """

    def __init__(self, models, n_replicas: int | None = None, *,
                 policy: ClusterPolicy | None = None,
                 router_factory=None,
                 cache_size: int = DEFAULT_CACHE_SIZE,
                 resilience=None, scheduler_policy=None,
                 metrics: MetricsRegistry | None = None):
        self.policy = policy or ClusterPolicy()
        self.metrics = metrics or MetricsRegistry()
        self._resilience = resilience
        self._scheduler_policy = scheduler_policy
        self._cache_size = cache_size
        # One shared model lock across every replica (and every future
        # standby generation): replicas handed the same model object
        # share its inference arenas and weight snapshots, so inference
        # must never interleave.
        self._model_lock = threading.Lock()
        models = self._coerce_models(models, n_replicas)
        ids = [f"r{i}" for i in range(len(models))]
        self._route_lock = threading.Lock()
        self._admission_lock = threading.Lock()
        self._in_flight = 0
        self._generation = 0
        self._replicas: list[Replica] = [
            self._build_replica(rid, model)
            for rid, model in zip(ids, models)]
        factory = router_factory or RendezvousRouter
        self.router = factory(ids)
        self._closed = False

    @staticmethod
    def _coerce_models(models, n_replicas: int | None) -> list[NLIDB]:
        if isinstance(models, (list, tuple)):
            fleet = list(models)
            if n_replicas is not None and n_replicas != len(fleet):
                raise ValueError(
                    f"n_replicas={n_replicas} but {len(fleet)} models given")
        else:
            fleet = [models] * (n_replicas or 1)
        if not fleet:
            raise ValueError("cluster needs at least one model")
        for model in fleet:
            if not getattr(model, "_fitted", False):
                raise ModelError("ClusterService needs fitted NLIDBs")
        return fleet

    def _build_replica(self, replica_id: str, model: NLIDB) -> Replica:
        service = TranslationService(
            model, cache_size=self._cache_size,
            policy=self._resilience,
            scheduler_policy=self._scheduler_policy,
            model_lock=self._model_lock)
        return Replica(replica_id, service,
                       tracked_tables=self.policy.tracked_tables)

    # ------------------------------------------------------------------
    # Public API (mirrors TranslationService)
    # ------------------------------------------------------------------

    @property
    def color(self) -> str:
        """The live generation's blue/green label."""
        return _COLORS[self._generation % 2]

    @property
    def replicas(self) -> list[Replica]:
        """The live replica set (snapshot; membership may change)."""
        with self._route_lock:
            return list(self._replicas)

    def submit(self, request, table: Table | None = None,
               beam_width: int | None = None,
               ) -> "Future[TranslationResult]":
        """Admit, route, and enqueue one request.

        Accepts the same forms as
        :meth:`TranslationService.submit`; raises
        :class:`~repro.errors.ReproError` only for malformed requests.
        An over-capacity request resolves *immediately* with a
        ``"failed"`` envelope whose error is
        :class:`~repro.errors.Overloaded` — the caller's future never
        blocks behind a queue the cluster has no intention of serving.
        """
        if table is not None:
            request = as_request((request, table, beam_width))
        else:
            request = as_request(request)
        return self._submit_request(request)

    def translate(self, question, table: Table,
                  beam_width: int | None = None) -> TranslationResult:
        """``submit(...).result()`` — one synchronous request."""
        return self.submit(question, table, beam_width).result()

    def translate_batch(self, requests) -> list[TranslationResult]:
        """Route many requests; results come back in input order.

        Malformed items yield ``"failed"`` envelopes at their index,
        exactly like the single service.
        """
        items = list(requests)
        futures: list[Future | None] = []
        results: list[TranslationResult | None] = [None] * len(items)
        for i, item in enumerate(items):
            try:
                request = as_request(item)
            except ReproError as exc:
                self.metrics.increment("bad_requests")
                results[i] = TranslationResult.from_failure(exc)
                futures.append(None)
                continue
            futures.append(self._submit_request(request))
        for i, future in enumerate(futures):
            if future is not None:
                results[i] = future.result()
        return results

    def close(self) -> None:
        """Stop admitting; every replica drains its in-flight work."""
        self._closed = True
        for replica in self.replicas:
            replica.service.close()

    # ------------------------------------------------------------------
    # Blue/green model swap
    # ------------------------------------------------------------------

    def swap(self, models, warm: bool = True) -> dict:
        """Zero-downtime rollover to a new model generation.

        ``models`` is the new fitted NLIDB (shared) or one per
        replica, matching the live count.  Sequence: build the standby
        set → warm each standby replica's schema cache from the
        corresponding live shard's hottest fingerprints (the live set
        keeps serving throughout) → atomically switch the active set →
        drain the old one.  Requests racing the switch re-route to the
        new set on :class:`~repro.serving.scheduler.QueueClosed`, so
        no request is ever lost.

        Returns a summary dict (generation, color, replicas, warmed
        fingerprint count).
        """
        live = self.replicas
        if isinstance(models, (list, tuple)) and len(models) != len(live):
            raise ValueError(
                f"swap needs {len(live)} models, got {len(models)}")
        fleet = self._coerce_models(models, len(live))
        standby = [self._build_replica(replica.replica_id, model)
                   for replica, model in zip(live, fleet)]
        warmed = 0
        if warm and self.policy.warm_top_k:
            for old, fresh in zip(live, standby):
                warmed += self._warm_replica(
                    fresh, old.hottest(self.policy.warm_top_k))
        with self._route_lock:
            drained = self._replicas
            self._replicas = standby
            self._generation += 1
        for replica in drained:
            replica.draining = True
            replica.service.close()  # in-flight work still completes
        self.metrics.increment("swaps")
        summary = {"generation": self._generation, "color": self.color,
                   "replicas": [r.replica_id for r in standby],
                   "warmed_fingerprints": warmed,
                   "drained": len(drained)}
        self.metrics.increment("warmed_fingerprints", warmed)
        return summary

    def _warm_replica(self, replica: Replica,
                      hot: list[tuple[str, Table]]) -> int:
        """Pre-build schema encodings the standby shard will need.

        Warms under the shared model lock (encoding runs the column
        RNN), competing fairly with live traffic — warming is
        background work, not a stop-the-world phase.
        """
        annotator = getattr(replica.service.nlidb, "annotator", None)
        classifier = getattr(annotator, "column_classifier", None)
        if annotator is None or not getattr(classifier, "_trained", False):
            return 0
        warmed = 0
        for shard_key, table in hot:
            try:
                with self._model_lock:
                    annotator.schema_encoding(table, shard_key)
                replica.observe(shard_key, table)
                warmed += 1
            except ReproError:
                continue
        return warmed

    # ------------------------------------------------------------------
    # Stats
    # ------------------------------------------------------------------

    def stats(self) -> dict:
        """Cluster counters, router membership, per-replica snapshots."""
        with self._admission_lock:
            in_flight = self._in_flight
        self.metrics.set_gauge("in_flight", float(in_flight))
        self.metrics.set_gauge("replicas", float(len(self.replicas)))
        snapshot = self.metrics.snapshot()
        snapshot["schema_version"] = WIRE_SCHEMA_VERSION
        snapshot["generation"] = self._generation
        snapshot["color"] = self.color
        snapshot["policy"] = asdict(self.policy)
        snapshot["router"] = self.router.snapshot()
        snapshot["replicas"] = {replica.replica_id: replica.stats()
                                for replica in self.replicas}
        return snapshot

    # ------------------------------------------------------------------
    # Admission + routing (caller thread)
    # ------------------------------------------------------------------

    def _submit_request(self, request: TranslationRequest,
                        ) -> "Future[TranslationResult]":
        outer: Future = Future()
        shard_key = request.fingerprint
        self.metrics.increment("requests")
        if self._closed:
            raise QueueClosed("cluster is closed")
        with self._admission_lock:
            if self._in_flight >= self.policy.max_in_flight:
                admitted = False
            else:
                admitted = True
                self._in_flight += 1
        if not admitted:
            self.metrics.increment("rejections")
            outer.set_result(self._reject(shard_key))
            return outer
        try:
            self._dispatch(outer, request, shard_key)
        except BaseException:
            with self._admission_lock:
                self._in_flight -= 1
            raise
        return outer

    def _reject(self, shard_key: str) -> TranslationResult:
        error = Overloaded(
            f"cluster at capacity ({self.policy.max_in_flight} in flight);"
            " retry with backoff")
        result = TranslationResult.from_failure(error)
        result.shard_key = shard_key
        result.trace = (self._route_record(shard_key, None, False,
                                           rejected=True),)
        return result

    def _dispatch(self, outer: Future, request: TranslationRequest,
                  shard_key: str) -> None:
        """Route to the first healthy ranked replica; retry on races.

        A replica may close between the routing decision and the
        enqueue (blue/green switch) — :class:`QueueClosed` re-routes
        against the post-switch active set, which is exactly where the
        request belongs.
        """
        attempted: set[str] = set()
        while True:
            replica, failover = self._route(shard_key, attempted)
            replica.observe(shard_key, request.table)
            self.metrics.increment(f"routed_{replica.replica_id}")
            if failover:
                self.metrics.increment("failovers")
            try:
                inner = replica.service.submit(request)
            except QueueClosed:
                attempted.add(replica.replica_id)
                if all(r.replica_id in attempted or r.draining
                       for r in self.replicas):
                    attempted = set()  # active set changed; start over
                self.metrics.increment("reroutes")
                continue
            # Built *now*: the record must describe the generation that
            # routed the request, not whichever is live when the future
            # resolves (a swap may land in between).
            record = self._route_record(
                shard_key, replica.replica_id, failover)
            inner.add_done_callback(
                lambda f, r=replica, rec=record:
                self._resolve(outer, f, r, shard_key, rec))
            return

    def _route(self, shard_key: str,
               attempted: set[str]) -> tuple[Replica, bool]:
        """The owner replica, or the best healthy stand-in."""
        with self._route_lock:
            by_id = {r.replica_id: r for r in self._replicas}
        ranked = [rid for rid in self.router.ranked(shard_key)
                  if rid in by_id]
        candidates = [rid for rid in ranked if rid not in attempted]
        if not candidates:
            candidates = ranked
        owner = candidates[0]
        if not self.policy.failover:
            return by_id[owner], False
        for rid in candidates:
            if by_id[rid].healthy():
                return by_id[rid], rid != ranked[0]
        # Nobody healthy: the owner's degradation ladder still answers.
        return by_id[owner], owner != ranked[0]

    # ------------------------------------------------------------------
    # Resolution (replica worker thread, or inline on cache hits)
    # ------------------------------------------------------------------

    def _route_record(self, shard_key: str, replica_id: str | None,
                      failover: bool, rejected: bool = False) -> StageRecord:
        record = StageRecord(
            stage="route",
            outcome="error" if rejected else "ok",
            detail={"shard_key": shard_key, "replica_id": replica_id,
                    "failover": failover, "generation": self._generation,
                    "color": self.color})
        if rejected:
            record.error = "Overloaded"
            record.message = "admission refused: cluster at capacity"
        return record

    def _resolve(self, outer: Future, inner: Future, replica: Replica,
                 shard_key: str, record: StageRecord) -> None:
        with self._admission_lock:
            self._in_flight -= 1
        try:
            exc = inner.exception()
            if exc is not None:
                outer.set_exception(exc)
                return
            result: TranslationResult = inner.result()
            # The envelope is per-request (only the Translation inside
            # is cache-shared), so stamping it is safe.
            result.replica_id = replica.replica_id
            result.shard_key = shard_key
            result.trace = (record, *tuple(result.trace))
            self.metrics.increment(f"served_{result.status}")
            outer.set_result(result)
        except BaseException as fatal:  # noqa: BLE001 — must resolve
            if not outer.done():
                outer.set_exception(fatal)
