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
the cohort stage runner.
"""

import numpy as np
import pytest


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


class TestCohortArtifacts:
    def test_cohort_matches_sequential_pipeline(self, nlidb,
                                                cohort_examples):
        requests = [(list(e.question_tokens), e.table, None)
                    for e in cohort_examples]
        lanes, stats = nlidb.cohort_artifacts(requests)
        assert stats["lanes"] == len(requests)
        assert stats["failed"] == 0
        for example, lane in zip(cohort_examples, lanes):
            reference = nlidb.translate(example.question_tokens,
                                        example.table)
            assert lane["source"] == reference.annotated_tokens
            assert lane["predicted"] == reference.predicted_annotated_sql
            recovered = nlidb.recover(lane["source"], lane["predicted"],
                                      lane["annotation"])
            assert recovered.result_equal(reference)

    def test_failed_lane_is_none_not_poisonous(self, nlidb,
                                               cohort_examples):
        good = cohort_examples[0]
        requests = [(list(good.question_tokens), good.table, None),
                    ([], good.table, None),  # empty question -> ModelError
                    (list(good.question_tokens), good.table, None)]
        lanes, stats = nlidb.cohort_artifacts(requests)
        assert lanes[1] is None
        assert lanes[0] is not None and lanes[2] is not None
        assert stats["failed"] == 1


class TestCohortLocalization:
    """Phase C of ``cohort_artifacts``: one batched adversarial
    localization pass over every lane's positive (question, column)
    pairs, with Phase B's failure accounting."""

    @staticmethod
    def _requests(corpus):
        return [(list(e.question_tokens), e.table, None)
                for e in corpus[:16]]

    def _spy(self, monkeypatch, fail=False):
        import repro.core.annotator as annotator_module
        from repro.errors import ModelError

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
        lanes, stats = nlidb.cohort_artifacts(requests)
        assert stats["failed"] == 0
        assert len(calls) == 1
        assert len(calls[0]) == stats["influence_batch"] > 0
        for (tokens, table, _width), lane in zip(requests, lanes):
            reference = nlidb.annotate(tokens, table)
            assert lane["annotation"].annotated_tokens() == \
                reference.annotated_tokens()

    def test_failed_localization_fails_only_lanes_with_pairs(
            self, nlidb, corpus, monkeypatch):
        requests = self._requests(corpus)
        calls = self._spy(monkeypatch)
        nlidb.cohort_artifacts(requests)
        localized = set(calls[0])
        monkeypatch.undo()

        self._spy(monkeypatch, fail=True)
        lanes, stats = nlidb.cohort_artifacts(requests)
        failed = {tuple(tokens) for (tokens, _t, _w), lane
                  in zip(requests, lanes) if lane is None}
        assert failed == localized
        assert stats["failed"] == sum(1 for (tokens, _t, _w) in requests
                                      if tuple(tokens) in localized)
