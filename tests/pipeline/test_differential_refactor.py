"""Differential guarantee: the stage graph changed *how* the pipeline
runs, not *what* it computes.

``legacy_translate`` re-composes the three steps exactly the way the
pre-refactor ``NLIDB.translate`` did (direct calls, no executor, no
guards); its SQL must be byte-identical to the
pipeline path — directly and through the serving layer — on the full
session corpus (≥ 50 (question, table) pairs over ≥ 3 domains).
"""

from repro.serving import TranslationService


def legacy_translate(nlidb, question_tokens, table):
    """The pre-stage-graph composition of annotate→translate→recover."""
    annotation = nlidb.annotator.annotate(question_tokens, table)
    source = annotation.annotated_tokens(
        append=nlidb.config.column_name_appending,
        header_encoding=nlidb.config.header_encoding)
    predicted = nlidb.translator.translate(
        source, nlidb.header_tokens(table),
        extra_symbols=nlidb._symbols(annotation))
    return nlidb.recover(source, predicted, annotation)


def sql_of(translation):
    return translation.query.to_sql() if translation.query is not None \
        else f"<failed: {translation.error}>"


class TestPipelineEquivalence:
    def test_corpus_is_big_enough(self, corpus):
        assert len(corpus) >= 50
        assert len({e.table.name for e in corpus}) >= 3

    def test_full_path_sql_byte_identical(self, nlidb, corpus,
                                          direct_translations):
        # direct_translations came from nlidb.translate (the pipeline);
        # compare byte-for-byte against the legacy composition.
        mismatches = []
        for example, direct in zip(corpus, direct_translations):
            legacy = legacy_translate(nlidb, example.question_tokens,
                                      example.table)
            if sql_of(legacy) != sql_of(direct):
                mismatches.append((example.question_tokens,
                                   sql_of(legacy), sql_of(direct)))
        assert not mismatches, mismatches[:5]

    def test_service_path_sql_byte_identical(self, nlidb, corpus,
                                             direct_translations):
        service = TranslationService(nlidb, cache_size=256)
        for example, direct in zip(corpus, direct_translations):
            result = service.translate(example.question_tokens,
                                       example.table)
            assert result.status in ("ok", "failed")  # never degraded here
            served_sql = result.sql if result.sql is not None \
                else f"<failed: {result.translation.error}>"
            assert served_sql == sql_of(direct)
        assert service.metrics.counter("degraded_fallbacks") == 0

    def test_every_direct_translation_carries_a_trace(self,
                                                      direct_translations):
        for translation in direct_translations:
            assert translation.trace
            names = [record.stage for record in translation.trace]
            assert names[0] == "annotate"
            assert names[-2:] == ["translate", "recover"]
