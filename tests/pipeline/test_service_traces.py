"""Every served request carries a non-empty per-stage trace.

One test per degradation-ladder rung (ok, cached, degraded, failed,
breaker short-circuit, deadline refusal, retried) plus the malformed-
batch-item path — the acceptance surface of the stage-graph refactor.
Stub translator throughout: milliseconds, no training.
"""

import json

import pytest

from repro.core import NLIDB, NLIDBConfig
from repro.pipeline import (
    OUTCOME_CACHED,
    OUTCOME_ERROR,
    OUTCOME_OK,
    OUTCOME_SKIPPED,
)
from repro.serving import (
    CircuitBreaker,
    FaultInjector,
    FaultSpec,
    FaultyNLIDB,
    ResiliencePolicy,
    TranslationService,
)
from repro.sqlengine import Column, DataType, Table
from repro.text import WordEmbeddings

EMB = WordEmbeddings(dim=16, seed=0)

QUESTION = "which film has director tarkovsky ?"


class StubTranslator:
    def __init__(self):
        class _Config:
            beam_width = 5
        self.config = _Config()

    def translate(self, source, header_tokens, extra_symbols=(),
                  beam_width=None):
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


def make_service(specs=(), policy=None, breaker=None):
    model = NLIDB(EMB, NLIDBConfig(), translator=StubTranslator())
    model._fitted = True  # annotator runs matcher-only when untrained
    if specs:
        model = FaultyNLIDB(model, FaultInjector(list(specs)))
    return TranslationService(
        model, policy=policy or ResiliencePolicy(backoff_base_s=0.0),
        breaker=breaker)


def stages_of(result):
    return [record.stage for record in result.trace]


class TestTracePerRung:
    def test_ok_result_trace(self):
        service = make_service()
        result = service.translate(QUESTION, make_table())
        assert result.status == "ok"
        assert stages_of(result) == ["annotate", "annotate.values",
                                     "annotate.columns", "annotate.resolve",
                                     "annotate.symbols", "translate",
                                     "recover"]
        assert all(r.outcome == OUTCOME_OK for r in result.trace)
        assert all(r.mode == "full" for r in result.trace)
        json.dumps(result.to_dict())  # trace rides in the JSON view

    def test_cache_hit_trace(self):
        service = make_service()
        table = make_table()
        service.translate(QUESTION, table)
        hit = service.translate(QUESTION, table)
        assert hit.cached
        assert len(hit.trace) == 1
        record = hit.trace[0]
        assert record.stage == "cache"
        assert record.outcome == OUTCOME_CACHED and record.cached

    def test_degraded_result_trace(self):
        service = make_service(
            [FaultSpec(stage="annotate", kind="permanent", mode="full")])
        result = service.translate(QUESTION, make_table())
        assert result.status == "degraded"
        failed_full = [r for r in result.trace if r.mode == "full"]
        assert failed_full and failed_full[-1].outcome == OUTCOME_ERROR
        assert failed_full[-1].error == "InjectedFault"
        degraded = [r for r in result.trace if r.mode == "context_free"]
        assert [r.stage for r in degraded][:1] == ["annotate"]
        assert all(r.outcome == OUTCOME_OK for r in degraded)
        # Degraded-rung timings keep their prefix, as before.
        assert {"degraded.annotate", "degraded.translate",
                "degraded.recover"} <= set(result.timings)

    def test_failed_result_trace(self):
        service = make_service(
            [FaultSpec(stage="recover", kind="permanent")],
            policy=ResiliencePolicy(backoff_base_s=0.0, degradation=False))
        result = service.translate(QUESTION, make_table())
        assert result.status == "failed"
        assert result.trace  # non-empty even with no rung completing
        assert result.trace[-1].stage == "recover"
        assert result.trace[-1].outcome == OUTCOME_ERROR

    def test_breaker_short_circuit_trace(self):
        breaker = CircuitBreaker(failure_threshold=1, cooldown_s=3600.0)
        service = make_service(
            [FaultSpec(stage="annotate", kind="permanent", mode="full")],
            breaker=breaker)
        service.translate(QUESTION, make_table(0))  # trips the breaker
        result = service.translate(QUESTION, make_table(1))
        assert service.metrics.counter("breaker_short_circuits") == 1
        skip = result.trace[0]
        assert skip.stage == "full" and skip.outcome == OUTCOME_SKIPPED
        assert skip.detail["reason"] == "circuit breaker open"
        # The degraded rung still ran after the skip record.
        assert result.status == "degraded"
        assert any(r.mode == "context_free" for r in result.trace)

    def test_deadline_refusal_trace(self):
        service = make_service(
            policy=ResiliencePolicy(deadline_s=0.0, backoff_base_s=0.0))
        result = service.translate(QUESTION, make_table())
        assert result.status == "failed"
        assert result.error["type"] == "DeadlineExceeded"
        refused = result.trace[-1]
        assert refused.stage == "annotate"
        assert refused.outcome == OUTCOME_ERROR
        assert refused.error == "DeadlineExceeded"
        # Refused stages never ran, so they must not feed the timings
        # or the latency histograms (the pre-refactor behaviour).
        assert "annotate" not in result.timings
        assert "annotate" not in service.stats()["histograms"]
        assert service.metrics.counter("deadline_exceeded") == 1

    def test_retry_attempts_accumulate_in_one_trace(self):
        service = make_service(
            [FaultSpec(stage="translate", kind="transient", count=1)])
        result = service.translate(QUESTION, make_table())
        assert result.status == "ok" and result.attempts == 2
        failed = [r for r in result.trace
                  if r.stage == "translate" and r.outcome == OUTCOME_ERROR]
        assert len(failed) == 1 and failed[0].attempt == 1
        ok = [r for r in result.trace
              if r.stage == "translate" and r.outcome == OUTCOME_OK]
        assert len(ok) == 1 and ok[0].attempt == 2
        # Both attempts annotated: the retry recomputed from scratch.
        assert len([r for r in result.trace if r.stage == "annotate"]) == 2
        assert service.metrics.counter("retries") == 1

    def test_bad_batch_item_gets_synthetic_trace(self):
        service = make_service()
        results = service.translate_batch([(QUESTION, make_table()),
                                           "junk"])
        bad = results[1]
        assert bad.status == "failed"
        assert len(bad.trace) == 1
        assert bad.trace[0].stage == "request"
        assert bad.trace[0].outcome == OUTCOME_ERROR
        assert bad.trace[0].error == "ReproError"


class TestTraceDerivedMetrics:
    def test_substage_histograms_are_recorded(self):
        service = make_service()
        service.translate(QUESTION, make_table())
        histograms = service.stats()["histograms"]
        for name in ("annotate", "annotate.values", "annotate.columns",
                     "annotate.resolve", "annotate.symbols", "translate",
                     "recover"):
            assert histograms[name]["count"] == 1
        # Sub-stages stay out of the envelope's top-level timings.
        result = service.translate(QUESTION, make_table(1))
        assert set(result.timings) == {"annotate", "translate", "recover"}

    def test_stats_cache_hit_rate(self):
        service = make_service()
        table = make_table()
        service.translate(QUESTION, table)
        service.translate(QUESTION, table)
        cache = service.stats()["cache"]
        assert cache["hits"] == 1 and cache["misses"] == 1
        assert cache["hit_rate"] == pytest.approx(0.5)
