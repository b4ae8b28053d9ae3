"""Differential tests: the serving fast paths are byte-identical to the
direct pipeline.

Over a seeded corpus of 50+ (question, table) pairs spanning several
synthetic domains, ``TranslationService`` must return translations
whose canonical query, annotated tokens, and predicted annotated SQL
all equal a direct ``NLIDB.translate`` — cold (first touch), warm
(cache hit), through ``translate_batch``, and across a model swap
with requests in flight.
"""

from repro.core.persistence import load_nlidb, save_nlidb
from repro.serving import (
    TranslationRequest,
    TranslationResult,
    TranslationService,
)


def _domain_of(example) -> str:
    # Generated table names look like "<domain>_<split>_<i>".
    return example.table.name.rsplit("_", 2)[0]


def _assert_identical(results, direct):
    assert len(results) == len(direct)
    # Unwrap the service's TranslationResult envelopes: a request whose
    # recovery fails is status "failed" but still carries the
    # translation; every full-path request here must not be degraded.
    translations = []
    for result in results:
        assert isinstance(result, TranslationResult)
        assert result.status != "degraded"
        assert (result.status == "ok") == (result.sql is not None)
        translations.append(result.translation)
    for served, reference in zip(translations, direct):
        assert tuple(served.annotated_tokens) \
            == tuple(reference.annotated_tokens)
        assert tuple(served.predicted_annotated_sql) \
            == tuple(reference.predicted_annotated_sql)
        if reference.query is None:
            assert served.query is None
            assert served.error == reference.error
        else:
            assert served.query is not None
            assert served.query.canonical() == reference.query.canonical()
        assert served.result_equal(reference)


class TestCorpusShape:
    def test_corpus_size_and_domain_spread(self, corpus):
        assert len(corpus) >= 50
        assert len({_domain_of(e) for e in corpus}) >= 3


class TestDifferential:
    def test_cold_path_matches_direct(self, service, corpus,
                                      direct_translations):
        served = [service.translate(e.question_tokens, e.table)
                  for e in corpus]
        _assert_identical(served, direct_translations)
        assert service.metrics.counter("cache_misses") == len(corpus)

    def test_warm_path_matches_direct(self, service, corpus,
                                      direct_translations):
        for example in corpus:
            service.translate(example.question_tokens, example.table)
        served = [service.translate(e.question_tokens, e.table)
                  for e in corpus]
        _assert_identical(served, direct_translations)
        # Every second-pass request was answered from cache.
        assert service.metrics.counter("cache_hits") >= len(corpus)

    def test_batched_path_matches_direct(self, service, corpus,
                                         direct_translations):
        served = service.translate_batch(
            [(e.question_tokens, e.table) for e in corpus])
        _assert_identical(served, direct_translations)

    def test_batched_request_objects_match_direct(self, service, corpus,
                                                  direct_translations):
        served = service.translate_batch(
            [TranslationRequest(question=e.question_tokens, table=e.table)
             for e in corpus])
        _assert_identical(served, direct_translations)

    def test_warm_batch_after_cold_singles(self, service, corpus,
                                           direct_translations):
        for example in corpus:
            service.translate(example.question_tokens, example.table)
        served = service.translate_batch(
            [(e.question_tokens, e.table) for e in corpus])
        _assert_identical(served, direct_translations)
        assert service.metrics.counter("cache_misses") == len(corpus)
        assert service.metrics.counter("cache_hits") == len(corpus)

    def test_string_question_hits_token_entry(self, service, corpus,
                                              direct_translations):
        example, reference = corpus[0], direct_translations[0]
        service.translate(example.question_tokens, example.table)
        served = service.translate(example.question, example.table)
        _assert_identical([served], [reference])
        assert service.metrics.counter("cache_hits") == 1

    def test_counters_sum_consistently(self, service, corpus):
        for _ in range(3):
            for example in corpus[:10]:
                service.translate(example.question_tokens, example.table)
        metrics = service.metrics
        assert metrics.counter("requests") == 30
        assert metrics.counter("cache_hits") \
            + metrics.counter("cache_misses") == metrics.counter("requests")
        # Outcome counters partition the request stream.
        assert metrics.counter("served_ok") \
            + metrics.counter("served_degraded") \
            + metrics.counter("served_failed") == metrics.counter("requests")
        # A healthy model serves no degraded traffic and the breaker
        # stays shut.
        assert metrics.counter("served_degraded") == 0
        assert service.stats()["breaker"]["state"] == "closed"


class TestSwapDifferential:
    def test_swap_under_load_loses_nothing(self, nlidb, corpus,
                                           direct_translations, tmp_path):
        # The standby is a reload of the same weights, so every answer,
        # whichever model served it, must equal the direct pipeline's.
        save_nlidb(nlidb, tmp_path / "next")
        standby = load_nlidb(tmp_path / "next")
        service = TranslationService(nlidb, cache_size=256)
        try:
            half = len(corpus) // 2
            futures = [service.submit(e.question_tokens, e.table)
                       for e in corpus[:half]]
            service.swap(standby)
            futures += [service.submit(e.question_tokens, e.table)
                        for e in corpus[half:]]
            results = [f.result(timeout=120) for f in futures]
        finally:
            service.close()
        assert service.nlidb is standby
        assert len(results) == len(corpus)  # zero requests lost
        for result, reference in zip(results, direct_translations):
            assert isinstance(result, TranslationResult)
            assert result.status != "degraded"
            if reference.query is None:
                assert result.sql is None
            else:
                assert result.sql == reference.query.to_sql()
        # The new model really served: its schema cache saw traffic.
        assert standby.annotator.schema_cache_stats()["misses"] > 0
        counters = service.metrics
        assert counters.counter("served_ok") \
            + counters.counter("served_failed") == len(corpus)
