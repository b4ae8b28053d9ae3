"""Every serving path answers the session corpus with the golden SQL.

``tests/golden_sql.json`` (see ``tests/golden.py``; regenerate with
``make golden-sql``) is the answer key of the session model on the 54
corpus pairs: the SQL, or the recovery error.  A change that keeps SQL
the same must match it on three paths — a direct ``NLIDB.translate``,
a solo ``TranslationService.translate`` (a cohort of one), and one
54-request ``translate_batch`` (cohorts of up to 16 lanes).  CI also
runs this file with ``OPENBLAS_CORETYPE=Haswell``, where cohort rows
go through the AVX2 gemm kernels.
"""

import pytest

from repro.serving import TranslationService
from tests import golden


@pytest.fixture(scope="module")
def key():
    return golden.load()


def served_answer(result):
    translation = result.translation
    assert translation is not None, result.error
    return golden.answer(translation)


def mismatches(key, answers):
    return [(pair["question"], got, {"sql": pair["sql"],
                                     "error": pair["error"]})
            for pair, got in zip(key, answers)
            if got != {"sql": pair["sql"], "error": pair["error"]}]


class TestGoldenSQL:
    def test_key_covers_the_corpus(self, key, corpus):
        assert len(key) == len(corpus) == 54
        assert [pair["question"] for pair in key] \
            == [" ".join(example.question_tokens) for example in corpus]
        assert [pair["table"] for pair in key] \
            == [example.table.name for example in corpus]
        assert sum(1 for pair in key if pair["sql"] is not None) >= 50

    def test_direct_translate(self, key, corpus, direct_translations):
        answers = [golden.answer(t) for t in direct_translations]
        assert not mismatches(key, answers)

    def test_solo_service_translate(self, key, corpus, nlidb):
        service = TranslationService(nlidb, cache_size=256)
        try:
            answers = [served_answer(service.translate(e.question_tokens,
                                                       e.table))
                       for e in corpus]
        finally:
            service.close()
        assert not mismatches(key, answers)
        assert service.metrics.counter("coalesced_requests") == 0

    def test_one_54_request_batch(self, key, corpus, nlidb):
        service = TranslationService(nlidb, cache_size=256)
        try:
            results = service.translate_batch(
                [(e.question_tokens, e.table) for e in corpus])
        finally:
            service.close()
        answers = [served_answer(result) for result in results]
        assert not mismatches(key, answers)
        assert service.metrics.counter("coalesced_requests") >= 2
