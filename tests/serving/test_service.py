"""Unit tests for the serving building blocks.

These use a stub translator (no training) so cache semantics, metrics
bookkeeping, request normalization, queue-bound admission and model
swaps are exercised in milliseconds; the trained-model behaviour is
covered by the differential suite and the resilience behaviour by
``test_resilience.py``/``test_faults.py``.
"""

import inspect
import json
import threading
import time

import pytest

from repro.caching import LRUCache
from repro.core import NLIDB, NLIDBConfig
from repro.errors import ModelError, ReproError
from repro.serving import (
    WIRE_SCHEMA_VERSION,
    MetricsRegistry,
    SchedulerPolicy,
    TranslationRequest,
    TranslationResult,
    TranslationService,
    as_request,
    normalize_question,
)
from repro.sqlengine import Column, DataType, Table
from repro.text import WordEmbeddings

EMB = WordEmbeddings(dim=16, seed=0)


class StubTranslator:
    """Deterministic translator standing in for the seq2seq model."""

    def __init__(self, output=("select", "g1")):
        self.output = list(output)
        self.calls = 0

        class _Config:
            beam_width = 5
        self.config = _Config()

    def translate(self, source, header_tokens, extra_symbols=(),
                  beam_width=None):
        self.calls += 1
        return list(self.output)

    def translate_many(self, requests):
        return [self.translate(r["source"], r["header_tokens"],
                               r["extra_symbols"], r["beam_width"])
                for r in requests]


class GatedTranslator(StubTranslator):
    """A stub whose ``translate`` holds until ``release`` is set.

    ``entered`` fires on the first call; ``active``/``peak`` count
    calls running at once, across every thread and service.
    """

    def __init__(self, output=("select", "g1")):
        super().__init__(output)
        self.entered = threading.Event()
        self.release = threading.Event()
        self._count_lock = threading.Lock()
        self.active = 0
        self.peak = 0

    def translate(self, source, header_tokens, extra_symbols=(),
                  beam_width=None):
        with self._count_lock:
            self.active += 1
            self.peak = max(self.peak, self.active)
        self.entered.set()
        self.release.wait(timeout=10.0)
        with self._count_lock:
            self.active -= 1
        return super().translate(source, header_tokens, extra_symbols,
                                 beam_width)


def fitted_model(translator):
    model = NLIDB(EMB, NLIDBConfig(), translator=translator)
    model._fitted = True  # annotator runs matcher-only when untrained
    return model


def wait_for(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.005)


def make_table(name="films", rows=None):
    return Table(name, [Column("film"), Column("director"),
                        Column("year", DataType.REAL)],
                 rows if rows is not None
                 else [("solaris", "tarkovsky", 1972),
                       ("stalker", "tarkovsky", 1979)])


@pytest.fixture
def stub():
    return StubTranslator()


@pytest.fixture
def stub_service(stub):
    model = NLIDB(EMB, NLIDBConfig(), translator=stub)
    model._fitted = True  # annotator runs matcher-only when untrained
    return TranslationService(model, cache_size=8)


QUESTION = "which film has director tarkovsky ?"


class TestLRUCache:
    def test_eviction_is_least_recently_used(self):
        cache = LRUCache(maxsize=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # promotes "a"
        cache.put("c", 3)
        assert "b" not in cache
        assert cache.get("a") == 1 and cache.get("c") == 3
        assert cache.evictions == 1

    def test_overwrite_does_not_evict(self):
        cache = LRUCache(maxsize=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("a", 10)
        assert len(cache) == 2
        assert cache.get("a") == 10
        assert cache.evictions == 0

    def test_clear_and_len(self):
        cache = LRUCache(maxsize=4)
        for i in range(4):
            cache.put(i, i)
        cache.clear()
        assert len(cache) == 0
        assert cache.get(0) is None

    def test_maxsize_validated(self):
        with pytest.raises(ValueError):
            LRUCache(maxsize=0)

    def test_hit_and_miss_counters(self):
        cache = LRUCache(maxsize=2)
        assert cache.get("a") is None
        cache.put("a", 1)
        assert cache.get("a") == 1
        assert cache.get("a", count=False) == 1  # uncounted double-check
        assert cache.hits == 1 and cache.misses == 1
        assert cache.hit_rate() == pytest.approx(0.5)

    def test_hit_rate_without_traffic(self):
        assert LRUCache(maxsize=2).hit_rate() == 0.0

    def test_get_or_compute_computes_once_per_key(self):
        cache = LRUCache(maxsize=4)
        calls = []
        assert cache.get_or_compute("k", lambda: calls.append(1) or 7) == 7
        assert cache.get_or_compute("k", lambda: calls.append(1) or 9) == 7
        assert len(calls) == 1
        assert cache.hits == 1 and cache.misses == 1

    def test_get_or_compute_propagates_errors_and_retries(self):
        cache = LRUCache(maxsize=4)
        with pytest.raises(RuntimeError):
            cache.get_or_compute("k", lambda: (_ for _ in ()).throw(
                RuntimeError("boom")))
        # The failed computation is not cached: the next call retries.
        assert cache.get_or_compute("k", lambda: 5) == 5

    def test_get_or_compute_single_flight_under_concurrency(self):
        cache = LRUCache(maxsize=4)
        gate = threading.Event()
        compute_calls = []

        def slow_compute():
            compute_calls.append(1)
            gate.wait(timeout=5.0)
            return 42

        values = []
        threads = [threading.Thread(
            target=lambda: values.append(cache.get_or_compute(
                "k", slow_compute))) for _ in range(4)]
        for t in threads:
            t.start()
        gate.set()
        for t in threads:
            t.join(timeout=5.0)
        assert values == [42] * 4
        assert len(compute_calls) == 1  # one leader, three coalesced
        assert cache.misses == 1 and cache.hits == 3


class TestMetricsRegistry:
    def test_counters_and_snapshot(self):
        metrics = MetricsRegistry()
        metrics.increment("requests")
        metrics.increment("requests", 2)
        metrics.observe("annotate", 0.25)
        metrics.observe("annotate", 0.75)
        snap = metrics.snapshot()
        assert snap["counters"]["requests"] == 3
        hist = snap["histograms"]["annotate"]
        assert hist["count"] == 2
        assert hist["mean_s"] == pytest.approx(0.5)
        assert hist["min_s"] == 0.25 and hist["max_s"] == 0.75

    def test_histogram_minmax_from_first_observation(self):
        # A sub-zero first sample (coarse clocks can tick backwards
        # across cores) must become the max, not be masked by a 0.0
        # sentinel.
        metrics = MetricsRegistry()
        metrics.observe("skew", -0.002)
        hist = metrics.snapshot()["histograms"]["skew"]
        assert hist["min_s"] == -0.002 and hist["max_s"] == -0.002
        metrics.observe("skew", -0.001)
        hist = metrics.snapshot()["histograms"]["skew"]
        assert hist["max_s"] == -0.001

    def test_percentiles_nearest_rank(self):
        metrics = MetricsRegistry()
        for ms in range(1, 101):  # 0.001s .. 0.100s
            metrics.observe("latency", ms / 1000.0)
        hist = metrics.snapshot()["histograms"]["latency"]
        assert hist["p50_s"] == pytest.approx(0.050)
        assert hist["p95_s"] == pytest.approx(0.095)
        assert hist["p99_s"] == pytest.approx(0.099)

    def test_percentiles_single_sample_and_empty(self):
        metrics = MetricsRegistry()
        metrics.observe("one", 0.25)
        hist = metrics.snapshot()["histograms"]["one"]
        assert hist["p50_s"] == hist["p95_s"] == hist["p99_s"] == 0.25
        empty = MetricsRegistry()
        empty.observe("x", 0.1)
        empty.reset()
        # Histogram dropped entirely on reset; the zero-count summary
        # shape is exercised through _Histogram directly.
        from repro.serving.metrics import _Histogram
        assert _Histogram().summary()["p99_s"] == 0.0

    def test_percentiles_window_is_bounded(self):
        from repro.serving.metrics import RESERVOIR_SIZE, _Histogram
        hist = _Histogram()
        # An initial slow regime, then RESERVOIR_SIZE fast samples: the
        # slow regime must age out of the percentile window while the
        # exact aggregates still remember it.
        for _ in range(100):
            hist.observe(10.0)
        for _ in range(RESERVOIR_SIZE):
            hist.observe(0.001)
        summary = hist.summary()
        assert summary["count"] == 100 + RESERVOIR_SIZE
        assert summary["max_s"] == 10.0
        assert summary["p99_s"] == pytest.approx(0.001)

    def test_gauges(self):
        metrics = MetricsRegistry()
        assert metrics.gauge("breaker_state") == 0.0
        metrics.set_gauge("breaker_state", 1.0)
        metrics.set_gauge("cache_size", 12)
        assert metrics.gauge("breaker_state") == 1.0
        snap = metrics.snapshot()
        assert snap["gauges"] == {"breaker_state": 1.0, "cache_size": 12.0}

    def test_time_context_records_a_sample(self):
        metrics = MetricsRegistry()
        with metrics.time("block"):
            pass
        assert metrics.snapshot()["histograms"]["block"]["count"] == 1

    def test_reset(self):
        metrics = MetricsRegistry()
        metrics.increment("x")
        metrics.observe("y", 1.0)
        metrics.set_gauge("z", 2.0)
        metrics.reset()
        assert metrics.snapshot() == {"counters": {}, "gauges": {},
                                      "histograms": {}}

    def test_snapshot_is_json_serializable(self):
        metrics = MetricsRegistry()
        metrics.increment("requests")
        metrics.observe("annotate", 0.1)
        metrics.set_gauge("cache_size", 1.0)
        json.dumps(metrics.snapshot())


class TestRequestNormalization:
    def test_string_and_tokens_normalize_identically(self):
        assert normalize_question(QUESTION) \
            == normalize_question(QUESTION.split())

    def test_as_request_accepts_tuples(self):
        table = make_table()
        request = as_request((QUESTION, table))
        assert request == TranslationRequest(QUESTION, table)
        widened = as_request((QUESTION, table, 3))
        assert widened.beam_width == 3

    def test_question_normalized_to_token_tuple(self):
        table = make_table()
        from_string = TranslationRequest(QUESTION, table)
        from_list = TranslationRequest(QUESTION.split(), table)
        assert isinstance(from_string.question, tuple)
        assert from_string == from_list

    def test_requests_are_hashable_cache_keys(self):
        # Equal content (even across table objects) -> one set entry.
        a = TranslationRequest(QUESTION, make_table())
        b = TranslationRequest(QUESTION.split(), make_table())
        assert hash(a) == hash(b)
        assert len({a, b}) == 1
        other = TranslationRequest(QUESTION, make_table(
            rows=[("mirror", "tarkovsky", 1975)]))
        assert len({a, other}) == 2

    def test_as_request_rejects_junk(self):
        with pytest.raises(ReproError):
            as_request("just a string")
        with pytest.raises(ReproError):
            as_request((QUESTION, "not a table"))


class TestServiceCache:
    def test_requires_fitted_model(self, stub):
        model = NLIDB(EMB, NLIDBConfig(), translator=stub)
        with pytest.raises(ModelError):
            TranslationService(model)

    def test_envelope_shape_on_success(self, stub_service):
        result = stub_service.translate(QUESTION, make_table())
        assert isinstance(result, TranslationResult)
        assert result.status == "ok" and result.ok
        assert result.sql == result.translation.query.to_sql()
        assert result.error is None
        assert result.attempts == 1 and not result.cached
        assert {"annotate", "translate", "recover"} <= set(result.timings)
        json.dumps(result.to_dict())

    def test_repeat_question_skips_the_model(self, stub_service, stub):
        table = make_table()
        first = stub_service.translate(QUESTION, table)
        second = stub_service.translate(QUESTION, table)
        assert stub.calls == 1
        assert second.translation is first.translation  # the cached object
        assert second.cached and not first.cached
        assert second.attempts == 0
        assert stub_service.metrics.counter("cache_hits") == 1

    def test_content_equal_table_object_hits(self, stub_service, stub):
        stub_service.translate(QUESTION, make_table())
        replica = make_table(name="films_reloaded")
        stub_service.translate(QUESTION, replica)
        assert stub.calls == 1

    def test_mutated_table_misses(self, stub_service, stub):
        table = make_table()
        stub_service.translate(QUESTION, table)
        table.insert(("mirror", "tarkovsky", 1975))
        stub_service.translate(QUESTION, table)
        assert stub.calls == 2
        assert stub_service.metrics.counter("cache_misses") == 2

    def test_beam_width_is_part_of_the_key(self, stub_service, stub):
        table = make_table()
        stub_service.translate(QUESTION, table)
        stub_service.translate(QUESTION, table, beam_width=2)
        assert stub.calls == 2
        # An explicit width equal to the configured default shares the
        # defaulted entry.
        stub_service.translate(QUESTION, table,
                               beam_width=stub.config.beam_width)
        assert stub.calls == 2

    def test_bounded_cache_recomputes_after_eviction(self, stub):
        model = NLIDB(EMB, NLIDBConfig(), translator=stub)
        model._fitted = True
        service = TranslationService(model, cache_size=2)
        tables = [make_table(rows=[(f"film{i}", "x", i)]) for i in range(3)]
        for table in tables:
            service.translate(QUESTION, table)
        service.translate(QUESTION, tables[0])  # evicted -> recompute
        assert stub.calls == 4
        assert service.stats()["cache"]["evictions"] >= 1

    def test_clear_cache(self, stub_service, stub):
        table = make_table()
        stub_service.translate(QUESTION, table)
        stub_service.clear_cache()
        stub_service.translate(QUESTION, table)
        assert stub.calls == 2


class TestSubmitAPI:
    """The unified async entry point — and the removed ``raw`` shim."""

    def test_raw_kwarg_is_gone(self, stub_service):
        # The deprecated pre-envelope escape hatch was removed outright;
        # passing it is an ordinary TypeError, not a warning.
        with pytest.raises(TypeError):
            stub_service.translate(QUESTION, make_table(), raw=True)
        with pytest.raises(TypeError):
            stub_service.translate_batch([(QUESTION, make_table())],
                                         raw=True)

    def test_signatures(self):
        params = inspect.signature(TranslationService.translate).parameters
        assert list(params) == ["self", "question", "table", "beam_width"]
        batch_params = inspect.signature(
            TranslationService.translate_batch).parameters
        assert list(batch_params) == ["self", "requests"]
        submit_params = inspect.signature(
            TranslationService.submit).parameters
        assert list(submit_params) == ["self", "request", "table",
                                       "beam_width"]

    def test_submit_returns_future_of_envelope(self, stub_service):
        from concurrent.futures import Future
        future = stub_service.submit(QUESTION, make_table())
        assert isinstance(future, Future)
        result = future.result(timeout=30)
        assert isinstance(result, TranslationResult)
        assert result.status == "ok"
        assert result.sql == result.translation.query.to_sql()

    def test_submit_accepts_every_request_form(self, stub_service, stub):
        table = make_table()
        forms = [
            stub_service.submit(TranslationRequest(QUESTION, table)),
            stub_service.submit((QUESTION, table)),
            stub_service.submit(QUESTION, table),
            stub_service.submit(QUESTION.split(), table),
        ]
        results = [f.result(timeout=30) for f in forms]
        assert all(r.status == "ok" for r in results)
        # All four normalize to one cache key: the model ran once.
        assert stub.calls == 1

    def test_submit_rejects_junk_immediately(self, stub_service):
        with pytest.raises(ReproError):
            stub_service.submit("just a string")
        with pytest.raises(ReproError):
            stub_service.submit(QUESTION, "not a table")

    def test_warm_cache_resolves_without_queueing(self, stub_service):
        table = make_table()
        stub_service.translate(QUESTION, table)
        queued_before = stub_service.scheduler.stats()["dispatched"]
        future = stub_service.submit(QUESTION, table)
        assert future.done()  # resolved synchronously at submission
        assert future.result().cached
        assert stub_service.scheduler.stats()["dispatched"] == queued_before

    def test_pipeline_failure_resolves_the_future(self, stub_service):
        # Model failures come back through the future as failed
        # envelopes, exactly like translate(); the future never raises
        # for them.
        result = stub_service.submit([], make_table()).result(timeout=30)
        assert result.status == "failed"
        assert result.error["type"] == "ModelError"

    def test_translate_is_submit_then_result(self, stub_service):
        sync = stub_service.translate(QUESTION, make_table())
        warm = stub_service.submit(QUESTION, make_table()).result(timeout=30)
        assert warm.translation is sync.translation

    def test_close_refuses_new_work_finishes_old(self, stub_service):
        table = make_table()
        first = stub_service.translate(QUESTION, table)
        stub_service.close()
        assert first.status == "ok"
        with pytest.raises(ReproError):
            stub_service.submit("other question ?", table)


class TestServiceFailures:
    def test_recovery_failure_is_cached_and_counted(self, stub):
        stub.output = ["bogus"]  # not a valid annotated SQL
        model = NLIDB(EMB, NLIDBConfig(), translator=stub)
        model._fitted = True
        service = TranslationService(model, cache_size=8)
        table = make_table()
        first = service.translate(QUESTION, table)
        second = service.translate(QUESTION, table)
        assert first.status == "failed" and first.sql is None
        assert first.translation.query is None and first.error
        assert first.error["stage"] == "recover"
        assert second.translation is first.translation
        assert service.metrics.counter("recovery_failures") == 1

    def test_annotation_failure_is_structured(self, stub_service):
        result = stub_service.translate([], make_table())
        assert result.status == "failed"
        assert result.translation is None and result.sql is None
        assert result.error["type"] == "ModelError"
        assert result.error["stage"] == "annotate"
        metrics = stub_service.metrics
        assert metrics.counter("annotation_failures") == 1
        assert metrics.counter("served_failed") == 1
        assert metrics.counter("cache_hits") \
            + metrics.counter("cache_misses") == metrics.counter("requests")

    def test_failures_are_not_cached(self, stub_service, stub):
        stub_service.translate([], make_table())
        stub_service.translate([], make_table())
        assert stub_service.metrics.counter("cache_misses") == 2


class TestServiceBatch:
    def test_batch_preserves_input_order(self, stub_service):
        tables = [make_table(rows=[(f"film{i}", "d", i)]) for i in range(3)]
        questions = [f"which film has year {i} ?" for i in range(3)]
        # Interleave tables so grouping must reorder work internally.
        requests = [(questions[i], tables[i % 3]) for i in (0, 1, 2, 1, 0)]
        results = stub_service.translate_batch(requests)
        assert len(results) == 5
        singles = [stub_service.translate(q, t) for q, t in requests]
        for batched, single in zip(results, singles):
            assert batched.translation.result_equal(single.translation)

    def test_duplicates_within_a_batch_compute_once(self, stub_service,
                                                    stub):
        table = make_table()
        results = stub_service.translate_batch(
            [(QUESTION, table)] * 4)
        assert stub.calls == 1
        assert all(r.translation is results[0].translation for r in results)
        assert stub_service.metrics.counter("batch_requests") == 4
        assert stub_service.metrics.counter("batches") == 1

    def test_batch_groups_same_table_requests(self, stub_service):
        table_a = make_table(rows=[("a", "d", 1)])
        table_b = make_table(rows=[("b", "d", 2)])
        requests = [("which film has year 1 ?", table_a),
                    ("which film has year 2 ?", table_b),
                    ("what is the director of the film a ?", table_a)]
        results = stub_service.translate_batch(requests)
        assert all(r is not None for r in results)
        assert stub_service.metrics.counter("requests") == 3

    def test_bad_item_yields_failed_envelope_not_exception(self,
                                                           stub_service):
        table = make_table()
        results = stub_service.translate_batch(
            [(QUESTION, table), "junk", (QUESTION, table)])
        assert [r.status for r in results] == ["ok", "failed", "ok"]
        assert results[1].error["type"] == "ReproError"
        assert stub_service.metrics.counter("bad_requests") == 1

    def test_stats_shape(self, stub_service):
        stub_service.translate(QUESTION, make_table())
        stats = stub_service.stats()
        json.dumps(stats)
        assert {"counters", "gauges", "histograms", "cache", "breaker",
                "policy", "scheduler", "schema_version"} <= set(stats)
        assert stats["schema_version"] >= 2
        assert stats["scheduler"]["dispatched"] >= 1
        assert stats["scheduler"]["policy"]["max_batch"] >= 1
        assert stats["cache"]["size"] == 1
        assert stats["breaker"]["state"] == "closed"
        assert stats["gauges"]["breaker_state"] == 0.0
        assert stats["gauges"]["cache_size"] == 1.0
        assert stats["counters"]["served_ok"] == 1
        for stage in ("annotate", "translate", "recover"):
            assert stats["histograms"][stage]["count"] == 1


class TestWireSchema:
    def test_envelope_is_v4_without_routing_fields(self, stub_service):
        result = stub_service.translate(QUESTION, make_table())
        payload = result.to_dict()
        assert WIRE_SCHEMA_VERSION == 4
        assert payload["schema_version"] == 4
        assert "replica_id" not in payload and "shard_key" not in payload
        assert all(record["stage"] != "route"
                   for record in payload["trace"])
        assert stub_service.stats()["schema_version"] == 4


def distinct_requests(n):
    return [(f"which film has year {i} ?",
             make_table(rows=[(f"film{i}", "d", i)])) for i in range(n)]


class TestQueueBound:
    """``SchedulerPolicy.max_queued``: refusal as ``Overloaded``."""

    def _blocked_service(self, max_queued):
        gated = GatedTranslator()
        service = TranslationService(
            fitted_model(gated), cache_size=64,
            scheduler_policy=SchedulerPolicy(max_queued=max_queued))
        # Occupy the worker: queued requests wait behind this one.
        running = service.submit("which film has year 99 ?",
                                 make_table(rows=[("film99", "d", 99)]))
        assert gated.entered.wait(timeout=5.0)
        return service, gated, running

    def test_burst_past_the_bound_gets_overloaded_envelopes(self):
        service, gated, running = self._blocked_service(max_queued=2)
        try:
            futures = [service.submit(q, t) for q, t in distinct_requests(6)]
            refused = futures[2:]
            # Refusals resolve at once, while the worker is still busy.
            assert all(f.done() for f in refused)
            for future in refused:
                result = future.result()
                assert result.status == "failed" and result.sql is None
                assert result.error["type"] == "Overloaded"
                assert result.error["retryable"] is True
                assert result.error["stage"] == "queue"
                assert result.trace[0].stage == "queue"
                assert result.trace[0].error == "Overloaded"
            gated.release.set()
            admitted = [running] + futures[:2]
            assert all(f.result(timeout=10).status == "ok"
                       for f in admitted)
        finally:
            gated.release.set()
            service.close()
        metrics = service.metrics
        assert metrics.counter("rejections") == 4
        assert metrics.counter("served_failed") == 4
        assert metrics.counter("served_ok") == 3
        assert metrics.counter("cache_hits") \
            + metrics.counter("cache_misses") == metrics.counter("requests")

    def test_below_the_bound_nothing_is_rejected(self):
        service, gated, running = self._blocked_service(max_queued=4)
        try:
            futures = [service.submit(q, t) for q, t in distinct_requests(4)]
            gated.release.set()
            results = [f.result(timeout=10) for f in [running] + futures]
        finally:
            gated.release.set()
            service.close()
        assert all(r.status == "ok" for r in results)
        assert service.metrics.counter("rejections") == 0

    def test_cache_hit_is_served_while_the_queue_is_full(self):
        gated = GatedTranslator()
        gated.release.set()
        service = TranslationService(
            fitted_model(gated), cache_size=64,
            scheduler_policy=SchedulerPolicy(max_queued=1))
        table = make_table()
        assert service.translate(QUESTION, table).status == "ok"
        gated.release.clear()
        gated.entered.clear()
        try:
            running = service.submit("which film has year 99 ?",
                                     make_table(rows=[("film99", "d", 99)]))
            assert gated.entered.wait(timeout=5.0)
            queued = service.submit("which film has year 7 ?", table)
            full = service.submit("which film has year 8 ?", table)
            assert full.result().error["type"] == "Overloaded"
            warm = service.submit(QUESTION, table)
            assert warm.done()
            assert warm.result().status == "ok" and warm.result().cached
            gated.release.set()
            assert running.result(timeout=10).status == "ok"
            assert queued.result(timeout=10).status == "ok"
        finally:
            gated.release.set()
            service.close()
        assert service.metrics.counter("rejections") == 1

    def test_malformed_request_still_raises(self):
        service, gated, _running = self._blocked_service(max_queued=1)
        try:
            service.submit("which film has year 1 ?", make_table())
            with pytest.raises(ReproError):
                service.submit(("question with no table",))
        finally:
            gated.release.set()
            service.close()

    def test_batch_past_the_bound_envelopes_at_each_index(self):
        service = TranslationService(
            fitted_model(StubTranslator()), cache_size=64,
            scheduler_policy=SchedulerPolicy(max_queued=2))
        requests = distinct_requests(4)
        requests.insert(1, "junk")
        results = service.translate_batch(requests)
        service.close()
        # translate_batch waits for room: only the malformed request
        # fails, at its own index.
        assert [r.status for r in results] \
            == ["ok", "failed", "ok", "ok", "ok"]
        assert results[1].error["type"] == "ReproError"
        assert service.metrics.counter("rejections") == 0

    def test_batch_larger_than_the_bound_is_served_in_full(self):
        service = TranslationService(
            fitted_model(StubTranslator()), cache_size=64,
            scheduler_policy=SchedulerPolicy(max_queued=4))
        try:
            results = service.translate_batch(distinct_requests(12))
        finally:
            service.close()
        assert [r.status for r in results] == ["ok"] * 12
        assert service.metrics.counter("rejections") == 0
        assert service.metrics.counter("served_ok") == 12

    def test_submit_burst_is_refused_while_a_batch_waits(self):
        service, gated, running = self._blocked_service(max_queued=4)
        batch_results = []
        batch = threading.Thread(target=lambda: batch_results.extend(
            service.translate_batch(distinct_requests(12))))
        try:
            batch.start()
            # The batch fills the queue to its bound and waits for room.
            deadline = time.monotonic() + 5.0
            while service.scheduler.stats()["queued"] < 4:
                assert time.monotonic() < deadline
                time.sleep(0.001)
            burst = [service.submit(f"which film has year {100 + i} ?",
                                    make_table(rows=[(f"f{i}", "d", i)]))
                     for i in range(3)]
            assert all(f.done() for f in burst)
            assert [f.result().error["type"] for f in burst] \
                == ["Overloaded"] * 3
            gated.release.set()
            batch.join(timeout=10.0)
            assert not batch.is_alive()
            assert running.result(timeout=10).status == "ok"
        finally:
            gated.release.set()
            service.close()
        assert [r.status for r in batch_results] == ["ok"] * 12
        assert service.metrics.counter("rejections") == 3

    def test_default_policy_is_unbounded(self, stub_service):
        assert stub_service.scheduler.policy.max_queued is None
        results = stub_service.translate_batch(distinct_requests(40))
        assert all(r.status == "ok" for r in results)
        assert stub_service.stats()["scheduler"]["policy"]["max_queued"] \
            is None


class TestSharedModelLock:
    def test_two_services_on_one_model_never_infer_at_once(self):
        gated = GatedTranslator()
        model = fitted_model(gated)
        first, second = TranslationService(model), TranslationService(model)
        try:
            a = first.submit("which film has year 1 ?",
                             make_table(rows=[("film1", "d", 1)]))
            assert gated.entered.wait(timeout=5.0)
            b = second.submit("which film has year 2 ?",
                              make_table(rows=[("film2", "d", 2)]))
            # Give the second worker time to reach the model: without a
            # lock the model owns, it would be inside translate now.
            time.sleep(0.3)
            assert gated.active == 1
            assert model.inference_lock.locked()
            gated.release.set()
            assert a.result(timeout=10).status == "ok"
            assert b.result(timeout=10).status == "ok"
        finally:
            gated.release.set()
            first.close()
            second.close()
        assert gated.peak == 1


class TestSwap:
    def test_rejects_an_unfitted_model(self, stub_service):
        served = stub_service.nlidb
        with pytest.raises(ModelError):
            stub_service.swap(NLIDB(EMB, NLIDBConfig(),
                                    translator=StubTranslator()))
        assert stub_service.nlidb is served
        assert stub_service.translate(QUESTION, make_table()).status == "ok"

    def test_swap_installs_model_hook_and_pipelines(self, stub_service):
        new = GatedTranslator(("select", "g2"))
        new.release.set()
        model = fitted_model(new)
        stub_service.swap(model)
        assert stub_service.nlidb is model
        assert all(pipeline.stages == model.pipeline().stages
                   for pipeline in stub_service._pipelines.values())
        result = stub_service.translate(QUESTION, make_table())
        assert result.sql == "SELECT director"
        assert new.calls == 1  # the new model's translator decoded it
        assert stub_service.metrics.counter("swaps") == 1

    def test_old_cache_entry_is_never_served_after_swap(self, stub_service,
                                                        stub):
        table = make_table()
        assert stub_service.translate(QUESTION, table).sql == "SELECT film"
        assert stub_service.translate(QUESTION, table).cached
        new = StubTranslator(("select", "g2"))
        stub_service.swap(fitted_model(new))
        result = stub_service.translate(QUESTION, table)
        assert not result.cached
        assert result.sql == "SELECT director"
        assert stub.calls == 1 and new.calls == 1

    def test_running_batch_finishes_on_old_model_queued_on_new(self):
        old = GatedTranslator(("select", "g1"))
        new = StubTranslator(("select", "g2"))
        service = TranslationService(fitted_model(old), cache_size=64)
        new_model = fitted_model(new)
        table = make_table()
        try:
            running = service.submit(QUESTION, table)
            assert old.entered.wait(timeout=5.0)
            swapper = threading.Thread(target=service.swap,
                                       args=(new_model,))
            swapper.start()
            # The swap waits for the running batch, holding back any
            # new one; a request queued meanwhile is not lost.
            wait_for(service._swap_lock.locked)
            queued = service.submit("which film has year 1 ?", table)
            assert swapper.is_alive() and not queued.done()
            old.release.set()
            swapper.join(timeout=10)
            assert not swapper.is_alive()
            assert running.result(timeout=10).sql == "SELECT film"
            assert queued.result(timeout=10).sql == "SELECT director"
            # The old model's answer was not cached under the new one.
            again = service.translate(QUESTION, table)
            assert not again.cached and again.sql == "SELECT director"
        finally:
            old.release.set()
            service.close()
        assert old.calls == 1 and new.calls == 2
