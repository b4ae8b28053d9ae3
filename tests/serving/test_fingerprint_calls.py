"""Each served request hashes its table exactly once.

The serving layer computes the content fingerprint at admission
(:attr:`TranslationRequest.fingerprint`) and carries it on the pipeline
context and the cohort lanes, so neither the annotator nor the schema
encoding re-hashes.  These tests count :func:`table_fingerprint` calls
on every module that imports it, per serving path.
"""

import pytest

from repro.core.mention import ColumnMentionClassifier
from repro.serving import (
    FaultInjector,
    FaultSpec,
    FaultyNLIDB,
    ResiliencePolicy,
    TranslationService,
)
from repro.sqlengine import Table, table_fingerprint

#: Every module that imports ``table_fingerprint`` by name.
MODULES = ("repro.serving.requests", "repro.serving.service",
           "repro.core.annotator", "repro.core.schema")


@pytest.fixture
def fingerprint_calls(monkeypatch):
    calls = []

    def counting(table):
        calls.append(table)
        return table_fingerprint(table)

    for module in MODULES:
        monkeypatch.setattr(f"{module}.table_fingerprint", counting)
    return calls


def fresh(table: Table, tag: str) -> Table:
    """A content-distinct copy, so no cache already holds it."""
    first = table.rows[0]
    return Table(table.name, list(table.columns),
                 list(table.rows) + [(tag,) + tuple(first[1:])])


class TestOneHashPerRequest:
    def test_sequential_translate(self, nlidb, corpus, fingerprint_calls):
        service = TranslationService(nlidb, cache_size=8)
        example = corpus[0]
        result = service.translate(example.question_tokens,
                                   fresh(example.table, "seq"))
        assert result.status == "ok"
        assert len(fingerprint_calls) == 1

    def test_coalesced_translate_batch(self, nlidb, corpus,
                                       fingerprint_calls):
        service = TranslationService(nlidb, cache_size=64)
        requests = [(e.question_tokens, fresh(e.table, f"batch{i}"))
                    for i, e in enumerate(corpus[:6])]
        results = service.translate_batch(requests)
        assert all(r.status == "ok" for r in results)
        assert service.stats()["counters"]["coalesced_requests"] == 6
        assert len(fingerprint_calls) == len(requests)

    def test_context_free_degraded_rung(self, nlidb, corpus,
                                        fingerprint_calls, monkeypatch):
        encodes = []
        original = ColumnMentionClassifier.encode_columns
        monkeypatch.setattr(
            ColumnMentionClassifier, "encode_columns",
            lambda self, columns: encodes.append(columns)
            or original(self, columns))
        injector = FaultInjector([FaultSpec(stage="annotate",
                                            kind="permanent", mode="full")])
        service = TranslationService(
            FaultyNLIDB(nlidb, injector),
            policy=ResiliencePolicy(backoff_base_s=0.0))
        example = corpus[1]
        result = service.translate(example.question_tokens,
                                   fresh(example.table, "degraded"))
        assert result.status == "degraded"
        assert len(fingerprint_calls) == 1
        # The context-free rung never runs the column classifier.
        assert encodes == []

    def test_cache_hit(self, nlidb, corpus, fingerprint_calls):
        service = TranslationService(nlidb, cache_size=8)
        example = corpus[2]
        table = fresh(example.table, "hit")
        service.translate(example.question_tokens, table)
        assert len(fingerprint_calls) == 1
        result = service.translate(example.question_tokens, table)
        assert result.cached
        assert len(fingerprint_calls) == 2
