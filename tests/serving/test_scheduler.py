"""The micro-batch scheduler: admission policy, queue mechanics, and
the end-to-end differential against sequential serving.

The policy tests drive :meth:`SchedulerPolicy.decide` with literal
clock values — it is a pure function, so no threads or sleeps are
needed to pin the max-wait/max-batch behaviour.  The queue tests gate
a stub ``process`` on events to make batch formation deterministic.
The differential classes use the session-trained model: whatever the
scheduler coalesces must come back **byte-identical** to the
sequential ``translate()`` path, across ≥ 50 mixed-table pairs and
under N-thread submission.
"""

import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.errors import ReproError
from repro.serving import (
    MicroBatchScheduler,
    QueueClosed,
    SchedulerPolicy,
    TranslationService,
)


class TestSchedulerPolicy:
    def test_idle_when_queue_empty(self):
        policy = SchedulerPolicy(max_batch=8, max_wait_s=0.5)
        assert policy.decide(0, now=10.0, oldest_enqueued_at=None) \
            == ("idle", None)

    def test_natural_batching_dispatches_immediately(self):
        # max_wait_s=0 (the default): anything queued dispatches the
        # moment the worker looks, regardless of age.
        policy = SchedulerPolicy(max_batch=8)
        assert policy.decide(1, now=10.0, oldest_enqueued_at=10.0) \
            == ("dispatch", 1)
        assert policy.decide(5, now=10.0, oldest_enqueued_at=10.0) \
            == ("dispatch", 5)

    def test_max_batch_caps_dispatch_size(self):
        policy = SchedulerPolicy(max_batch=4, max_wait_s=5.0)
        # A full batch dispatches even if the oldest request is brand
        # new — max-batch beats max-wait.
        assert policy.decide(9, now=0.0, oldest_enqueued_at=0.0) \
            == ("dispatch", 4)

    def test_max_wait_holds_then_releases(self):
        policy = SchedulerPolicy(max_batch=8, max_wait_s=0.5)
        verdict, remaining = policy.decide(2, now=100.2,
                                           oldest_enqueued_at=100.0)
        assert verdict == "wait"
        assert remaining == pytest.approx(0.3)
        # Once the oldest request has aged past the budget: dispatch.
        assert policy.decide(2, now=100.5, oldest_enqueued_at=100.0) \
            == ("dispatch", 2)
        assert policy.decide(2, now=101.0, oldest_enqueued_at=100.0) \
            == ("dispatch", 2)

    def test_queued_without_timestamp_is_an_error(self):
        policy = SchedulerPolicy(max_batch=8, max_wait_s=0.5)
        with pytest.raises(ValueError):
            policy.decide(1, now=0.0, oldest_enqueued_at=None)

    def test_validation(self):
        with pytest.raises(ValueError):
            SchedulerPolicy(max_batch=0)
        with pytest.raises(ValueError):
            SchedulerPolicy(max_wait_s=-1.0)

    def test_max_queued_validation(self):
        assert SchedulerPolicy().max_queued is None  # unbounded default
        assert SchedulerPolicy(max_queued=1).max_queued == 1
        for bad in (0, -3):
            with pytest.raises(ValueError):
                SchedulerPolicy(max_queued=bad)


def _drain(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            raise AssertionError("scheduler did not drain in time")
        time.sleep(0.005)


class TestMicroBatchScheduler:
    def test_requests_coalesce_while_worker_busy(self):
        sizes = []
        started, gate = threading.Event(), threading.Event()

        def process(batch):
            sizes.append(len(batch))
            if len(sizes) == 1:
                started.set()
                gate.wait(timeout=5.0)

        scheduler = MicroBatchScheduler(process,
                                        policy=SchedulerPolicy(max_batch=8))
        scheduler.submit("a")
        assert started.wait(timeout=5.0)
        # These arrive while the worker is mid-batch: they must pile up
        # and come out as ONE coalesced batch.
        scheduler.submit_many(["b", "c", "d"])
        gate.set()
        _drain(lambda: sum(sizes) == 4)
        assert sizes == [1, 3]
        stats = scheduler.stats()
        assert stats["batches"] == 2
        assert stats["coalesced_batches"] == 1
        assert stats["dispatched"] == 4
        assert stats["max_batch"] == 3

    def test_max_batch_splits_the_backlog(self):
        sizes = []
        started, gate = threading.Event(), threading.Event()

        def process(batch):
            sizes.append(len(batch))
            if len(sizes) == 1:
                started.set()
                gate.wait(timeout=5.0)

        scheduler = MicroBatchScheduler(process,
                                        policy=SchedulerPolicy(max_batch=4))
        scheduler.submit(0)
        assert started.wait(timeout=5.0)
        scheduler.submit_many(range(1, 11))
        gate.set()
        _drain(lambda: sum(sizes) == 11)
        assert sizes == [1, 4, 4, 2]

    def test_close_drains_queue_then_refuses(self):
        seen = []
        started, gate = threading.Event(), threading.Event()

        def process(batch):
            seen.extend(batch)
            if len(seen) == 1:
                started.set()
                gate.wait(timeout=5.0)

        scheduler = MicroBatchScheduler(process)
        scheduler.submit("a")
        assert started.wait(timeout=5.0)
        scheduler.submit("b")
        scheduler.close()
        gate.set()
        _drain(lambda: len(seen) == 2)  # queued work still completes
        with pytest.raises(QueueClosed):
            scheduler.submit("c")
        with pytest.raises(ReproError):  # QueueClosed is a ReproError
            scheduler.submit_many(["d"])

    def test_queue_bound_refuses_past_max_queued(self):
        seen = []
        started, gate = threading.Event(), threading.Event()

        def process(batch):
            seen.extend(batch)
            if len(seen) == 1:
                started.set()
                gate.wait(timeout=5.0)

        k = 3
        scheduler = MicroBatchScheduler(
            process, policy=SchedulerPolicy(max_batch=8, max_queued=k))
        assert scheduler.submit("running") is True
        assert started.wait(timeout=5.0)
        # The running batch is off the queue: k more fit, the next not.
        assert [scheduler.submit(i) for i in range(k)] == [True] * k
        assert scheduler.submit("k+1") is False
        assert scheduler.stats()["queued"] == k
        gate.set()
        _drain(lambda: len(seen) == k + 1)
        assert seen == ["running", 0, 1, 2]
        assert scheduler.stats()["policy"]["max_queued"] == k

    def test_submit_many_admits_a_prefix(self):
        seen = []
        started, gate = threading.Event(), threading.Event()

        def process(batch):
            seen.extend(batch)
            if len(seen) == 1:
                started.set()
                gate.wait(timeout=5.0)

        scheduler = MicroBatchScheduler(
            process, policy=SchedulerPolicy(max_queued=4))
        scheduler.submit("running")
        assert started.wait(timeout=5.0)
        assert scheduler.submit_many(["a", "b"]) == 2
        assert scheduler.submit_many(["c", "d", "e"]) == 2  # c, d fit
        assert scheduler.submit_many(["f"]) == 0
        assert scheduler.submit_many([]) == 0
        gate.set()
        _drain(lambda: len(seen) == 5)
        assert seen == ["running", "a", "b", "c", "d"]

    def test_submit_waiting_queues_past_the_bound_as_it_drains(self):
        seen = []
        scheduler = MicroBatchScheduler(
            seen.extend, policy=SchedulerPolicy(max_batch=2, max_queued=2))
        scheduler.submit_waiting(range(7))
        _drain(lambda: len(seen) == 7)
        assert seen == list(range(7))
        assert scheduler.stats()["max_batch"] <= 2

    def test_submit_waiting_raises_when_closed_while_waiting(self):
        started, gate = threading.Event(), threading.Event()

        def process(batch):
            started.set()
            gate.wait(timeout=5.0)

        scheduler = MicroBatchScheduler(
            process, policy=SchedulerPolicy(max_queued=1))
        scheduler.submit("running")
        assert started.wait(timeout=5.0)
        errors = []

        def wait_for_room():
            try:
                scheduler.submit_waiting(["a", "b", "c"])
            except QueueClosed as exc:
                errors.append(exc)

        waiter = threading.Thread(target=wait_for_room)
        waiter.start()
        _drain(lambda: scheduler.stats()["queued"] == 1)
        scheduler.close()
        waiter.join(timeout=5.0)
        gate.set()
        assert not waiter.is_alive()
        assert len(errors) == 1

    def test_process_error_reaches_handler_and_worker_survives(self):
        failures, done = [], threading.Event()

        def process(batch):
            if batch == ["boom"]:
                raise RuntimeError("kernel exploded")
            done.set()

        scheduler = MicroBatchScheduler(
            process, on_batch_error=lambda batch, exc: failures.append(
                (batch, type(exc).__name__)))
        scheduler.submit("boom")
        _drain(lambda: failures)
        assert failures == [(["boom"], "RuntimeError")]
        scheduler.submit("fine")  # the worker is still serving
        assert done.wait(timeout=5.0)


@pytest.fixture
def references(corpus, direct_translations):
    """question/table pairs with their sequential-path SQL strings."""
    refs = []
    for example, translation in zip(corpus, direct_translations):
        sql = translation.query.to_sql() if translation.query is not None \
            else None
        refs.append((example, sql))
    return refs


class TestCoalescedDifferential:
    def test_corpus_is_mixed_table_and_large_enough(self, references):
        assert len(references) >= 50
        assert len({e.table.name for e, _sql in references}) >= 3

    def test_batch_serving_byte_identical_sql(self, service, references):
        # One translate_batch over the whole mixed-table corpus: the
        # scheduler drains it in max-batch cohorts through the shared
        # kernels, and every lane's SQL must equal the sequential
        # path's byte for byte.
        results = service.translate_batch(
            [(e.question_tokens, e.table) for e, _sql in references])
        for result, (_example, sql) in zip(results, references):
            assert result.sql == sql
        # The coalesced path genuinely ran — this differential is not
        # vacuously passing through the sequential ladder.
        assert service.metrics.counter("coalesced_requests") >= 2
        scheduler = service.stats()["scheduler"]
        assert scheduler["coalesced_batches"] >= 1
        assert scheduler["max_batch"] >= 2

    def test_threaded_submit_byte_identical_sql(self, service, references):
        # N threads submit disjoint shards concurrently; whatever mix
        # of cohorts the scheduler forms, every future must resolve to
        # the sequential path's SQL.
        n_threads = 8

        def worker(shard):
            futures = [(service.submit(e.question_tokens, e.table), sql)
                       for e, sql in shard]
            return [(f.result(timeout=120), sql) for f, sql in futures]

        shards = [references[i::n_threads] for i in range(n_threads)]
        with ThreadPoolExecutor(max_workers=n_threads) as pool:
            outcomes = [f.result()
                        for f in [pool.submit(worker, s) for s in shards]]
        for shard_results in outcomes:
            for result, sql in shard_results:
                assert result.sql == sql
        metrics = service.metrics
        assert metrics.counter("requests") == len(references)
        assert metrics.counter("cache_hits") \
            + metrics.counter("cache_misses") == len(references)

    def test_coalesced_traces_carry_batch_identity(self, service,
                                                   references):
        results = service.translate_batch(
            [(e.question_tokens, e.table) for e, _sql in references[:8]])
        assert service.metrics.counter("coalesced_requests") >= 2
        stamped = [r for r in results
                   if any("batch_id" in record.detail for record in r.trace)]
        assert len(stamped) >= 2
        lanes_seen = set()
        for result in stamped:
            # The lane ran every stage itself, in its cohort: the full
            # seven-stage list, none of it cached.
            assert [record.stage for record in result.trace] == [
                "annotate", "annotate.values", "annotate.columns",
                "annotate.resolve", "annotate.symbols", "translate",
                "recover"]
            assert all(record.outcome == "ok" and not record.cached
                       for record in result.trace)
            identity = {(record.detail["batch_id"],
                         record.detail["batch_size"],
                         record.detail["batch_lane"])
                        for record in result.trace}
            assert len(identity) == 1  # one batch identity per lane
            batch_id, batch_size, batch_lane = identity.pop()
            assert 2 <= batch_size <= 8 and 0 <= batch_lane < batch_size
            details = {record.stage: record.detail for record in result.trace}
            assert details["translate"]["decode_path"] == "lockstep_many"
            lanes_seen.add((batch_id, batch_lane))
            # The record dicts serialize the identity too.
            payload = result.to_dict()
            annotate = next(r for r in payload["trace"]
                            if r["stage"] == "annotate")
            assert annotate["detail"]["batch_id"] \
                == details["annotate"]["batch_id"]
            assert annotate["schema_version"] >= 2
        # Every stamped lane is a distinct (batch, lane) slot.
        assert len(lanes_seen) == len(stamped)

    @pytest.mark.parametrize("max_batch", [1, 16])
    def test_threaded_clients_coalesce_only_when_allowed(
            self, nlidb, references, max_batch):
        # 8 client threads each send their shard one request at a time.
        # max_batch=16 must merge requests that arrive while the worker
        # is busy; max_batch=1 (single-request dispatch through the same
        # queue) must never.  Every answer stays byte-identical to the
        # sequential path either way.  cache_size=1 keeps the run
        # model-bound: the disjoint shards never hit the cache.
        service = TranslationService(
            nlidb, cache_size=1,
            scheduler_policy=SchedulerPolicy(max_batch=max_batch))
        n_threads = 8

        def client(shard):
            return [(service.translate(e.question_tokens, e.table), sql)
                    for e, sql in shard]

        shards = [references[i::n_threads] for i in range(n_threads)]
        with ThreadPoolExecutor(max_workers=n_threads) as pool:
            outcomes = [f.result()
                        for f in [pool.submit(client, s) for s in shards]]
        service.close()
        for shard_results in outcomes:
            for result, sql in shard_results:
                assert result.sql == sql
        coalesced = service.metrics.counter("coalesced_requests")
        max_seen = service.stats()["scheduler"]["max_batch"]
        if max_batch == 1:
            assert coalesced == 0
            assert max_seen <= 1
        else:
            assert coalesced > 0
            assert max_seen >= 2

    def test_mixed_stream_with_failures_and_duplicates(self, service,
                                                       references):
        good = references[:6]
        requests = [(e.question_tokens, e.table) for e, _sql in good]
        requests.insert(3, ([], good[0][0].table))     # annotation failure
        requests.append((good[0][0].question_tokens,   # duplicate of [0]
                         good[0][0].table))
        results = service.translate_batch(requests)
        expected = [sql for _e, sql in good]
        assert results[3].status == "failed"
        del results[3]
        for result, sql in zip(results[:6], expected):
            assert result.sql == sql
        assert results[6].sql == expected[0]  # the duplicate