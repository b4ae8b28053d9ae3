"""Each annotated request runs the context-free matcher exactly once.

:meth:`ColumnMatcher.best` takes every column of the table in one call
(the question's spans and span vectors are shared across columns), so
a request makes one call whatever its table's width, on every serving
path, and a cache hit makes none.
"""

import pytest

from repro.core.mention import ColumnMatcher
from repro.serving import (
    FaultInjector,
    FaultSpec,
    FaultyNLIDB,
    ResiliencePolicy,
    TranslationService,
)
from repro.sqlengine import Table


@pytest.fixture
def matcher_calls(monkeypatch):
    calls = []
    original = ColumnMatcher.best

    def counting(self, tokens, columns):
        calls.append(list(columns))
        return original(self, tokens, columns)

    monkeypatch.setattr(ColumnMatcher, "best", counting)
    return calls


def fresh(table: Table, tag: str) -> Table:
    """A content-distinct copy, so no cache already holds it."""
    first = table.rows[0]
    return Table(table.name, list(table.columns),
                 list(table.rows) + [(tag,) + tuple(first[1:])])


class TestOneMatcherCallPerRequest:
    def test_sequential_translate(self, nlidb, corpus, matcher_calls):
        service = TranslationService(nlidb, cache_size=8)
        example = corpus[0]
        result = service.translate(example.question_tokens,
                                   fresh(example.table, "seq"))
        assert result.status == "ok"
        assert matcher_calls == [example.table.column_names]

    def test_coalesced_translate_batch(self, nlidb, corpus, matcher_calls):
        service = TranslationService(nlidb, cache_size=64)
        requests = [(e.question_tokens, fresh(e.table, f"batch{i}"))
                    for i, e in enumerate(corpus[:6])]
        results = service.translate_batch(requests)
        assert all(r.status == "ok" for r in results)
        assert service.stats()["counters"]["coalesced_requests"] == 6
        assert len(matcher_calls) == len(requests)
        assert sorted(map(tuple, matcher_calls)) == sorted(
            tuple(table.column_names) for _tokens, table in requests)

    def test_context_free_degraded_rung(self, nlidb, corpus, matcher_calls):
        injector = FaultInjector([FaultSpec(stage="annotate",
                                            kind="permanent", mode="full")])
        service = TranslationService(
            FaultyNLIDB(nlidb, injector),
            policy=ResiliencePolicy(backoff_base_s=0.0))
        example = corpus[1]
        result = service.translate(example.question_tokens,
                                   fresh(example.table, "degraded"))
        assert result.status == "degraded"
        assert matcher_calls == [example.table.column_names]

    def test_cache_hit(self, nlidb, corpus, matcher_calls):
        service = TranslationService(nlidb, cache_size=8)
        example = corpus[2]
        table = fresh(example.table, "hit")
        service.translate(example.question_tokens, table)
        assert len(matcher_calls) == 1
        result = service.translate(example.question_tokens, table)
        assert result.cached
        assert len(matcher_calls) == 1
