"""Parity of the cross-request (coalesced) kernels with their
per-request references.

The micro-batching scheduler only earns its keep if fusing several
requests into one kernel call is *invisible* in the outputs: the union
batch shares row-sliced gemms (cell gates, attention query, output
projection, the classifier head) while every reduction whose shape is
per-request — attention softmax over exactly that request's memory,
similarity features, top-k pruning — stays grouped, so results are
bit-identical, not merely close.  These tests pin that equivalence for
the multi-schema column scorer, the multi-request lockstep decoder and
a cohort run of the stage graph.
"""

import numpy as np
import pytest

from repro.errors import ModelError


@pytest.fixture(scope="module")
def cohort_examples(corpus):
    """A handful of dev pairs spanning several distinct tables."""
    picked, seen = [], set()
    for example in corpus:
        if example.table.name not in seen:
            picked.append(example)
            seen.add(example.table.name)
        if len(picked) == 4:
            break
    assert len(picked) == 4, "corpus should span >= 4 tables"
    return picked


class TestColumnScorerMulti:
    def test_multi_schema_scoring_bit_equal_to_solo(self, nlidb,
                                                    cohort_examples):
        classifier = nlidb.annotator.column_classifier
        items = []
        for example in cohort_examples:
            schema, _status = nlidb.annotator.schema_encoding(example.table)
            items.append((example.question_tokens,
                          schema.encoded_subset(
                              [c.name for c in example.table.columns])))
        batched = classifier.score_columns_multi(items)
        assert len(batched) == len(items)
        for (question, encoded), probs in zip(items, batched):
            solo = classifier.score_columns(question, encoded=encoded)
            assert probs.shape == solo.shape
            assert np.array_equal(probs, solo)  # bit-equal, not approx


class TestLockstepManyDecoder:
    def _decode_request(self, nlidb, example):
        annotation = nlidb.annotate(example.question_tokens, example.table)
        source = annotation.annotated_tokens(
            append=nlidb.config.column_name_appending,
            header_encoding=nlidb.config.header_encoding)
        return {"source": source,
                "header_tokens": nlidb.header_tokens(example.table),
                "extra_symbols": nlidb._symbols(annotation)}

    def test_translate_many_matches_per_request_translate(
            self, nlidb, cohort_examples):
        requests = [self._decode_request(nlidb, example)
                    for example in cohort_examples]
        batched = nlidb.translator.translate_many(requests)
        assert nlidb.translator.last_decode["path"] == "lockstep_many"
        assert nlidb.translator.last_decode["lanes"] == len(requests)
        for request, predicted in zip(requests, batched):
            solo = nlidb.translator.translate(
                request["source"], request["header_tokens"],
                request["extra_symbols"])
            assert predicted == solo  # identical token sequences

    def test_single_request_falls_back_to_translate(self, nlidb,
                                                    cohort_examples):
        request = self._decode_request(nlidb, cohort_examples[0])
        [predicted] = nlidb.translator.translate_many([request])
        assert nlidb.translator.last_decode["path"] == "lockstep"
        solo = nlidb.translator.translate(
            request["source"], request["header_tokens"],
            request["extra_symbols"])
        assert predicted == solo


def run_cohort(nlidb, requests):
    """Run ``(tokens, table)`` requests through the stage graph as ONE
    cohort; returns the lanes' contexts."""
    ctxs = [nlidb.context(tokens, table) for tokens, table in requests]
    nlidb.pipeline().run_cohort(ctxs)
    return ctxs


class TestCohortArtifacts:
    def test_cohort_matches_sequential_pipeline(self, nlidb,
                                                cohort_examples):
        ctxs = run_cohort(nlidb, [(list(e.question_tokens), e.table)
                                  for e in cohort_examples])
        for example, ctx in zip(cohort_examples, ctxs):
            assert ctx.failure is None
            reference = nlidb.translate(example.question_tokens,
                                        example.table)
            translation = ctx.artifacts["translation"]
            assert ctx.artifacts["source"] == reference.annotated_tokens
            assert ctx.artifacts["predicted"] \
                == reference.predicted_annotated_sql
            assert translation.result_equal(reference)
            decode = ctx.trace.last("translate").detail
            assert decode["decode_path"] == "lockstep_many"

    def test_failed_lane_is_none_not_poisonous(self, nlidb,
                                               cohort_examples):
        good = cohort_examples[0]
        ctxs = run_cohort(nlidb, [
            (list(good.question_tokens), good.table),
            ([], good.table),  # empty question -> ModelError
            (list(good.question_tokens), good.table)])
        assert isinstance(ctxs[1].failure, ModelError)
        assert ctxs[1].failure.stage == "annotate"
        assert "translation" not in ctxs[1].artifacts
        for ctx in (ctxs[0], ctxs[2]):
            assert ctx.failure is None
            assert ctx.artifacts["translation"].query is not None
        # The healthy lanes still decoded together.
        assert ctxs[0].trace.last("translate").detail["decode_path"] \
            == "lockstep_many"


class TestCohortLocalization:
    """The column stage of a cohort: one batched adversarial
    localization pass over every lane's positive (question, column)
    pairs, and a failing pass fails only the lanes that had pairs."""

    @staticmethod
    def _requests(corpus):
        return [(list(e.question_tokens), e.table) for e in corpus[:16]]

    def _spy(self, monkeypatch, fail=False):
        import repro.core.annotator as annotator_module

        original = annotator_module.compute_influence
        calls = []

        def spy(classifier, pairs, **kwargs):
            calls.append([tuple(question) for question, _column in pairs])
            if fail:
                raise ModelError("injected localization failure")
            return original(classifier, pairs, **kwargs)

        monkeypatch.setattr(annotator_module, "compute_influence", spy)
        return calls

    def test_one_influence_call_per_cohort(self, nlidb, corpus,
                                           monkeypatch):
        calls = self._spy(monkeypatch)
        requests = self._requests(corpus)
        ctxs = run_cohort(nlidb, requests)
        assert all(ctx.failure is None for ctx in ctxs)
        assert len(calls) == 1
        assert len(calls[0]) > 0
        for (tokens, table), ctx in zip(requests, ctxs):
            reference = nlidb.annotate(tokens, table)
            assert ctx.artifacts["annotation"].annotated_tokens() == \
                reference.annotated_tokens()

    def test_failed_localization_fails_only_lanes_with_pairs(
            self, nlidb, corpus, monkeypatch):
        requests = self._requests(corpus)
        calls = self._spy(monkeypatch)
        run_cohort(nlidb, requests)
        localized = set(calls[0])
        monkeypatch.undo()

        self._spy(monkeypatch, fail=True)
        ctxs = run_cohort(nlidb, requests)
        failed = {tuple(tokens) for (tokens, _t), ctx
                  in zip(requests, ctxs) if ctx.failure is not None}
        assert failed == localized
        assert all(ctx.failure.stage == "annotate" for ctx in ctxs
                   if ctx.failure is not None)
        assert all("translation" in ctx.artifacts for ctx in ctxs
                   if ctx.failure is None)
