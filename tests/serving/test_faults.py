"""Fault-injection suite: every policy, against manufactured failures.

The matrix crosses pipeline stage × fault kind × breaker configuration
and asserts the serving contract: ``translate_batch`` returns a
structured :class:`TranslationResult` for **every** request — zero
escaped exceptions — with transient faults absorbed by retries,
permanent faults degraded or failed, the breaker observably opening
and half-opening, and deadlines enforced per stage.

The matrix runs on a stub translator (milliseconds); the degraded-path
differential test at the bottom uses the session-trained model from
``conftest.py``.
"""

import time

import pytest

from repro.core import NLIDB, NLIDBConfig
from repro.serving import (
    BREAKER_CLOSED,
    BREAKER_HALF_OPEN,
    BREAKER_OPEN,
    FaultInjector,
    FaultSpec,
    FaultyNLIDB,
    ResiliencePolicy,
    TranslationResult,
    TranslationService,
    parse_fault_spec,
)
from repro.sqlengine import Column, DataType, Table
from repro.text import WordEmbeddings

EMB = WordEmbeddings(dim=16, seed=0)

STAGES = ("annotate", "translate", "recover")


class StubTranslator:
    def __init__(self):
        self.calls = 0

        class _Config:
            beam_width = 5
        self.config = _Config()

    def translate(self, source, header_tokens, extra_symbols=(),
                  beam_width=None):
        self.calls += 1
        return ["select", "g1"]

    def translate_many(self, requests):
        return [self.translate(r["source"], r["header_tokens"],
                               r["extra_symbols"], r["beam_width"])
                for r in requests]


def make_table(i=0):
    return Table(f"films_{i}", [Column("film"), Column("director"),
                                Column("year", DataType.REAL)],
                 [(f"solaris_{i}", "tarkovsky", 1972 + i),
                  (f"stalker_{i}", "tarkovsky", 1979 + i)])


def make_requests(n=6):
    # Distinct tables so nothing is answered from the cache.
    return [(f"which film has director tarkovsky {i} ?", make_table(i))
            for i in range(n)]


def faulty_service(specs, policy=None, seed=0):
    model = NLIDB(EMB, NLIDBConfig(), translator=StubTranslator())
    model._fitted = True  # annotator runs matcher-only when untrained
    injector = FaultInjector(specs, seed=seed)
    service = TranslationService(
        FaultyNLIDB(model, injector),
        policy=policy or ResiliencePolicy(backoff_base_s=0.0))
    return service, injector


def assert_all_structured(results, n):
    assert len(results) == n
    for result in results:
        assert isinstance(result, TranslationResult)
        assert result.status in ("ok", "degraded", "failed")
        if result.status == "failed":
            assert result.error is not None
        else:
            assert result.sql is not None


class TestFaultSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            FaultSpec(stage="nope")
        with pytest.raises(ValueError):
            FaultSpec(stage="annotate", kind="explode")
        with pytest.raises(ValueError):
            FaultSpec(stage="annotate", count=0)
        with pytest.raises(ValueError):
            FaultSpec(stage="annotate", probability=1.5)

    def test_parse_shorthand(self):
        spec = parse_fault_spec("annotate:transient:2")
        assert spec == FaultSpec(stage="annotate", kind="transient", count=2)
        spec = parse_fault_spec("translate:permanent")
        assert spec.kind == "permanent" and spec.count is None
        spec = parse_fault_spec("annotate:latency:3:0.2")
        assert spec.kind == "latency" and spec.latency_s == 0.2
        with pytest.raises(ValueError):
            parse_fault_spec("a:b:c:d:e")

    def test_injector_is_deterministic_across_seeds(self):
        def fired(seed):
            service, injector = faulty_service(
                [FaultSpec(stage="translate", kind="transient",
                           probability=0.5)],
                policy=ResiliencePolicy(max_retries=10, backoff_base_s=0.0),
                seed=seed)
            service.translate_batch(make_requests(8))
            return injector.stats()["fired"][0]["fired"]

        assert fired(7) == fired(7)  # same seed, same plan
        assert fired(7) != fired(1234) or fired(7) > 0


class TestFaultMatrix:
    """stage × transient/permanent × breaker closed/open-prone."""

    @pytest.mark.parametrize("stage", STAGES)
    @pytest.mark.parametrize("tight_breaker", [False, True])
    def test_transient_faults_are_retried_to_ok(self, stage, tight_breaker):
        policy = ResiliencePolicy(
            max_retries=3, backoff_base_s=0.0,
            breaker_failure_threshold=2 if tight_breaker else 1000)
        service, injector = faulty_service(
            [FaultSpec(stage=stage, kind="transient", count=2)], policy)
        requests = make_requests(6)
        results = service.translate_batch(requests)
        assert_all_structured(results, len(requests))
        assert all(r.status == "ok" for r in results)
        # The faulted request records its extra attempts.
        assert max(r.attempts for r in results) >= 2
        assert service.metrics.counter("retries") == 2
        assert service.breaker.state == BREAKER_CLOSED
        assert injector.stats()["fired"][0]["fired"] == 2

    @pytest.mark.parametrize("stage", STAGES)
    @pytest.mark.parametrize("tight_breaker", [False, True])
    def test_permanent_faults_stay_structured(self, stage, tight_breaker):
        threshold = 2 if tight_breaker else 1000
        policy = ResiliencePolicy(
            max_retries=2, backoff_base_s=0.0,
            breaker_failure_threshold=threshold,
            breaker_cooldown_s=60.0)
        service, _ = faulty_service(
            [FaultSpec(stage=stage, kind="permanent")], policy)
        requests = make_requests(6)
        results = service.translate_batch(requests)
        assert_all_structured(results, len(requests))
        # The same stage also faults in the degraded rung, so nothing
        # can be served; every envelope is a structured failure.
        assert all(r.status == "failed" for r in results)
        assert all(r.error["type"] == "InjectedFault" for r in results)
        # Permanent faults must not burn retries.
        assert service.metrics.counter("retries") == 0
        metrics = service.metrics
        assert metrics.counter("served_failed") == len(requests)
        if tight_breaker:
            assert service.breaker.state == BREAKER_OPEN
            assert metrics.counter("full_path_failures") == threshold
            assert metrics.counter("breaker_short_circuits") \
                == len(requests) - threshold
        else:
            assert service.breaker.state == BREAKER_CLOSED
            assert metrics.counter("full_path_failures") == len(requests)

    @pytest.mark.parametrize("stage", STAGES)
    def test_full_path_only_faults_fall_to_degraded(self, stage):
        # mode="full" restricts annotate faults to the full rung; for
        # translate/recover the same effect comes from a count that the
        # full-path attempts exhaust before the degraded rung runs.
        if stage == "annotate":
            specs = [FaultSpec(stage=stage, kind="permanent", mode="full")]
            n = 6
        else:
            specs = [FaultSpec(stage=stage, kind="permanent", count=1)]
            n = 1
        service, _ = faulty_service(
            specs, ResiliencePolicy(max_retries=0, backoff_base_s=0.0,
                                    breaker_failure_threshold=1000))
        requests = make_requests(n)
        results = service.translate_batch(requests)
        assert_all_structured(results, n)
        assert all(r.status == "degraded" for r in results)
        assert all(r.error["type"] == "InjectedFault" for r in results)
        assert all("degraded.annotate" in r.timings for r in results)
        assert service.metrics.counter("degraded_fallbacks") == n

    def test_probabilistic_transients_all_recover(self):
        service, _ = faulty_service(
            [FaultSpec(stage="translate", kind="transient",
                       probability=0.4)],
            ResiliencePolicy(max_retries=25, backoff_base_s=0.0,
                             breaker_failure_threshold=1000),
            seed=3)
        requests = make_requests(10)
        results = service.translate_batch(requests)
        assert_all_structured(results, len(requests))
        assert all(r.status == "ok" for r in results)


class TestFaultInACohort:
    """A fault is a per-lane guard: it fails one lane of a cohort and
    leaves the other lanes' envelopes exactly as a fault-free run
    serves them."""

    @staticmethod
    def envelope(result):
        # Everything but wall-clock times.
        payload = result.to_dict()
        del payload["timings"]
        for record in payload["trace"]:
            del record["wall_s"]
        return payload

    @pytest.mark.parametrize("stage", STAGES)
    @pytest.mark.parametrize("kind", ["transient", "permanent"])
    def test_one_faulty_lane_of_four(self, stage, kind):
        policy = ResiliencePolicy(max_retries=2, backoff_base_s=0.0,
                                  breaker_failure_threshold=1000)
        requests = make_requests(4)
        clean, _ = faulty_service([], policy)
        faulty, injector = faulty_service(
            [FaultSpec(stage=stage, kind=kind, count=1)], policy)
        expected = clean.translate_batch(requests)
        results = faulty.translate_batch(requests)
        assert injector.stats()["fired"][0]["fired"] == 1
        assert all(record.detail["batch_size"] == 4
                   for result in expected for record in result.trace)
        # The first lane to enter the stage took the fault...
        hit = results[0]
        assert hit.status == ("ok" if kind == "transient" else "degraded")
        assert hit.attempts == (2 if kind == "transient" else 1)
        failed = [r for r in hit.trace if r.outcome == "error"]
        assert [(r.stage, r.error, r.detail["batch_lane"])
                for r in failed] == [(stage, "InjectedFault", 0)]
        # ...and the other three are unchanged.
        assert [self.envelope(r) for r in results[1:]] \
            == [self.envelope(r) for r in expected[1:]]
        assert faulty.metrics.counter("coalesce_fallbacks") == 1
        assert faulty.metrics.counter("coalesced_requests") == 3


class TestDegradedResultsAreNotCached:
    def test_recovery_after_fault_clears(self):
        # Two permanent full-rung annotate faults degrade the first two
        # serves of the same key; once the plan is exhausted the same
        # question is answered by the full pipeline and only then cached.
        service, _ = faulty_service(
            [FaultSpec(stage="annotate", kind="permanent", mode="full",
                       count=2)],
            ResiliencePolicy(max_retries=0, backoff_base_s=0.0,
                             breaker_failure_threshold=1000))
        table = make_table()
        question = "which film has director tarkovsky ?"
        first = service.translate(question, table)
        second = service.translate(question, table)
        third = service.translate(question, table)
        fourth = service.translate(question, table)
        assert [r.status for r in (first, second, third, fourth)] \
            == ["degraded", "degraded", "ok", "ok"]
        assert not third.cached and fourth.cached
        assert service.metrics.counter("cache_misses") == 3


class TestCircuitBreakerServing:
    def test_opens_then_half_opens_then_closes(self):
        # Exactly two permanent failures trip the threshold-2 breaker;
        # the plan then runs dry, so the post-cooldown probe succeeds.
        policy = ResiliencePolicy(max_retries=0, backoff_base_s=0.0,
                                  degradation=True,
                                  breaker_failure_threshold=2,
                                  breaker_cooldown_s=0.05)
        service, _ = faulty_service(
            [FaultSpec(stage="annotate", kind="permanent", mode="full",
                       count=2)], policy)
        requests = make_requests(4)
        first = service.translate(*requests[0])
        second = service.translate(*requests[1])
        assert [first.status, second.status] == ["degraded", "degraded"]
        assert service.breaker.state == BREAKER_OPEN

        # While open: full path skipped, degraded rung still serves.
        third = service.translate(*requests[2])
        assert third.status == "degraded"
        assert third.error["type"] == "CircuitOpen"
        assert third.attempts == 0
        assert service.metrics.counter("breaker_short_circuits") == 1

        time.sleep(0.06)
        assert service.breaker.state == BREAKER_HALF_OPEN
        fourth = service.translate(*requests[3])  # the probe succeeds
        assert fourth.status == "ok"
        assert service.breaker.state == BREAKER_CLOSED
        assert service.stats()["breaker"]["opens"] == 1

    def test_open_breaker_still_serves_cache(self):
        service, _ = faulty_service([])
        table = make_table()
        question = "which film has director tarkovsky ?"
        warmed = service.translate(question, table)
        assert warmed.status == "ok"
        for _ in range(service.breaker.failure_threshold):
            service.breaker.record_failure()
        assert service.breaker.state == BREAKER_OPEN
        hit = service.translate(question, table)
        assert hit.status == "ok" and hit.cached
        assert service.metrics.counter("breaker_short_circuits") == 0

    def test_degradation_disabled_fails_fast_while_open(self):
        service, _ = faulty_service(
            [FaultSpec(stage="annotate", kind="permanent")],
            ResiliencePolicy(max_retries=0, backoff_base_s=0.0,
                             degradation=False,
                             breaker_failure_threshold=1,
                             breaker_cooldown_s=60.0))
        requests = make_requests(3)
        results = service.translate_batch(requests)
        assert_all_structured(results, len(requests))
        assert results[0].error["type"] == "InjectedFault"
        assert all(r.status == "failed" for r in results)
        assert all(r.error["type"] == "CircuitOpen" for r in results[1:])


class TestDeadlines:
    def test_latency_fault_trips_the_stage_budget(self):
        service, _ = faulty_service(
            [FaultSpec(stage="annotate", kind="latency", latency_s=0.05)],
            ResiliencePolicy(deadline_s=0.01, max_retries=3,
                             backoff_base_s=0.0,
                             breaker_failure_threshold=1000))
        result = service.translate("which film has director tarkovsky ?",
                                   make_table())
        assert result.status == "failed"
        assert result.error["type"] == "DeadlineExceeded"
        # The budget died between annotate and translate: the per-stage
        # check before the *next* stage caught it.
        assert result.error["stage"] == "translate"
        assert result.attempts == 1  # deadline failures are not retried
        assert service.metrics.counter("deadline_exceeded") == 1
        # No budget left, so the degraded rung was not attempted.
        assert service.metrics.counter("degraded_fallbacks") == 0

    def test_generous_deadline_is_invisible(self):
        service, _ = faulty_service(
            [], ResiliencePolicy(deadline_s=30.0))
        requests = make_requests(3)
        results = service.translate_batch(requests)
        assert all(r.status == "ok" for r in results)


class TestOutcomeAccounting:
    @pytest.mark.parametrize("stage", STAGES)
    def test_counters_partition_under_faults(self, stage):
        service, _ = faulty_service(
            [FaultSpec(stage=stage, kind="transient", count=3)],
            ResiliencePolicy(max_retries=1, backoff_base_s=0.0,
                             breaker_failure_threshold=1000))
        requests = make_requests(6)
        results = service.translate_batch(requests)
        assert_all_structured(results, len(requests))
        metrics = service.metrics
        assert metrics.counter("served_ok") \
            + metrics.counter("served_degraded") \
            + metrics.counter("served_failed") == metrics.counter("requests")
        assert metrics.counter("cache_hits") \
            + metrics.counter("cache_misses") == metrics.counter("requests")


class TestDegradedDifferential:
    """The degraded rung equals direct context-free translation.

    Uses the session-trained model: with the full annotation rung
    knocked out, every served translation must match a direct
    ``NLIDB.translate(..., mode="context_free")``, and on questions
    whose mentions are exact (the generated corpus has plenty) the
    degraded path still recovers *valid SQL*.
    """

    def test_degraded_matches_direct_context_free(self, nlidb, corpus):
        injector = FaultInjector(
            [FaultSpec(stage="annotate", kind="permanent", mode="full")])
        service = TranslationService(
            FaultyNLIDB(nlidb, injector),
            policy=ResiliencePolicy(max_retries=0, backoff_base_s=0.0,
                                    breaker_failure_threshold=10 ** 6))
        subset = corpus[:25]
        results = service.translate_batch(
            [(e.question_tokens, e.table) for e in subset])
        assert_all_structured(results, len(subset))
        direct = [nlidb.translate(e.question_tokens, e.table,
                                  mode="context_free") for e in subset]
        recovered = 0
        for result, reference in zip(results, direct):
            assert result.status in ("degraded", "failed")
            assert result.translation is not None
            assert result.translation.result_equal(reference)
            if result.status == "degraded":
                assert result.sql is not None
                recovered += 1
        # Exact-mention questions must survive the matcher-only rung.
        assert recovered >= 1
