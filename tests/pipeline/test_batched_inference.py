"""Differential guarantee for the vectorized inference fast path.

The batched kernels changed *how* inference computes, not *what*: the
lockstep column scorer must match K sequential ``predict_proba`` calls
and the float32 lockstep beam search must pick byte-identical SQL to
the float64 per-beam oracle (``tests/oracles.py``) — over the full
session corpus (≥ 50 (question, table) pairs spanning ≥ 3 domains).
A graph-construction spy also pins down that neither fast path builds
autodiff state under ``no_grad``.
"""

import numpy as np
import pytest

from repro.core import build_schema_encoding
from repro.core.mention import ColumnMentionClassifier, compute_influence
from repro.core.seq2seq.model import TrainingPair
from repro.nn import GRUCell, LSTMCell, Tensor, allocation_events, no_grad
from repro.text import WordEmbeddings, tokenize
from tests import oracles


def sql_of(translation):
    return translation.query.to_sql() if translation.query is not None \
        else f"<failed: {translation.error}>"


class TestBatchedColumnScoring:
    def test_matches_sequential_predict_proba(self, nlidb, corpus):
        classifier = nlidb.annotator.column_classifier
        worst = 0.0
        checked = 0
        for example in corpus[:12]:
            question = example.question_tokens
            columns = [tokenize(c) for c in example.table.column_names]
            batched = classifier.score_columns(question, columns)
            sequential = np.array([classifier.predict_proba(question, col)
                                   for col in columns])
            worst = max(worst, float(np.abs(batched - sequential).max()))
            checked += len(columns)
        assert checked >= 30
        assert worst <= 1e-6, worst

    def test_cached_encoding_path_matches(self, nlidb, corpus):
        classifier = nlidb.annotator.column_classifier
        example = corpus[0]
        question = example.question_tokens
        columns = [tokenize(c) for c in example.table.column_names]
        encoded = classifier.encode_columns(columns)
        from_cache = classifier.score_columns(question, encoded=encoded)
        fresh = classifier.score_columns(question, columns)
        np.testing.assert_allclose(from_cache, fresh, atol=1e-12)

    def test_subset_of_cached_encoding_matches(self, nlidb, corpus):
        classifier = nlidb.annotator.column_classifier
        example = corpus[0]
        question = example.question_tokens
        columns = [tokenize(c) for c in example.table.column_names]
        encoded = classifier.encode_columns(columns)
        picked = list(range(len(columns)))[::2]
        subset_scores = classifier.score_columns(
            question, encoded=encoded.subset(picked))
        full_scores = classifier.score_columns(question, columns)
        # The float32 fast path's BLAS reductions are shape-dependent,
        # so a sub-batch can differ from the full batch by ~1 ulp.
        np.testing.assert_allclose(subset_scores, full_scores[picked],
                                   atol=1e-6)


class TestLockstepBeamSearch:
    def test_corpus_is_big_enough(self, corpus):
        assert len(corpus) >= 50
        assert len({e.table.name for e in corpus}) >= 3

    def test_sql_byte_identical_to_per_beam(self, nlidb, corpus,
                                            direct_translations):
        # direct_translations ran through the production (float32
        # lockstep) decoder; re-decode every pair with the float64
        # per-beam oracle and recover its SQL the same way.
        mismatches = []
        for example, direct in zip(corpus, direct_translations):
            annotation = nlidb.annotate(example.question_tokens,
                                        example.table)
            source = annotation.annotated_tokens(
                append=nlidb.config.column_name_appending,
                header_encoding=nlidb.config.header_encoding)
            predicted = oracles.decode_per_beam(
                nlidb.translator, source, nlidb.header_tokens(example.table),
                nlidb._symbols(annotation), 5)
            reference = nlidb.recover(source, predicted, annotation)
            if sql_of(reference) != sql_of(direct):
                mismatches.append((example.question_tokens,
                                   sql_of(reference), sql_of(direct)))
        assert len(direct_translations) == len(corpus) >= 54
        assert not mismatches, mismatches[:5]

    def test_wider_beam_still_identical(self, nlidb, corpus):
        for example in corpus[:8]:
            annotation = nlidb.annotate(example.question_tokens,
                                        example.table)
            source = annotation.annotated_tokens()
            headers = nlidb.header_tokens(example.table)
            symbols = nlidb._symbols(annotation)
            fast = nlidb.translator.translate(source, headers, symbols,
                                              beam_width=5)
            slow = oracles.decode_per_beam(nlidb.translator, source, headers,
                                           symbols, 5)
            assert fast == slow

    def test_last_decode_reports_the_fast_path(self, nlidb, corpus):
        annotation = nlidb.annotate(corpus[0].question_tokens,
                                    corpus[0].table)
        [_], decode = nlidb.translator.translate_many([{
            "source": annotation.annotated_tokens(),
            "header_tokens": nlidb.header_tokens(corpus[0].table),
            "extra_symbols": nlidb._symbols(annotation)}])
        assert decode["path"] == "lockstep"
        assert decode["steps"] >= 1
        assert decode["candidates"] > 0


class TestTraceVisibility:
    def test_second_request_hits_schema_cache(self, nlidb, corpus):
        nlidb.annotator._schema_cache.clear()
        example = corpus[0]

        def column_detail(translation):
            for record in translation.trace:
                if record.stage == "annotate.columns":
                    return record.detail
            raise AssertionError("no annotate.columns record")

        first = column_detail(nlidb.translate(example.question_tokens,
                                              example.table))
        again = column_detail(nlidb.translate(
            list(example.question_tokens) + ["please"], example.table))
        assert first["schema_cache"] == "miss"
        assert again["schema_cache"] == "hit"
        assert first["batch"] >= 0

    def test_translate_stage_reports_decode_path(self, nlidb, corpus):
        example = corpus[0]
        translation = nlidb.translate(example.question_tokens, example.table)
        detail = next(r.detail for r in translation.trace
                      if r.stage == "translate")
        assert detail["decode_path"] == "lockstep"
        assert detail["decode_steps"] >= 1
        assert detail["schema_encoding"] in ("hit", "none")


class TestNoGraphUnderNoGrad:
    @pytest.fixture()
    def graph_spy(self, monkeypatch):
        """Record every Tensor that joins an autodiff graph."""
        recorded = []
        original = Tensor._make

        def spy(self, data, parents, backward):
            out = original(self, data, parents, backward)
            if out._parents:
                recorded.append(out)
            return out

        monkeypatch.setattr(Tensor, "_make", spy)
        return recorded

    def test_score_columns_builds_no_graph(self, nlidb, corpus, graph_spy):
        example = corpus[0]
        columns = [tokenize(c) for c in example.table.column_names]
        nlidb.annotator.column_classifier.score_columns(
            example.question_tokens, columns)
        assert not graph_spy

    def test_predict_proba_builds_no_graph(self, nlidb, corpus, graph_spy):
        example = corpus[0]
        column = tokenize(example.table.column_names[0])
        nlidb.annotator.column_classifier.predict_proba(
            example.question_tokens, column)
        assert not graph_spy

    def test_lockstep_translate_builds_no_graph(self, nlidb, corpus,
                                                graph_spy):
        # Scope the assertion to the decoder; annotation has its own
        # test above.
        example = corpus[0]
        annotation = nlidb.annotate(example.question_tokens, example.table)
        graph_spy.clear()
        nlidb.translator.translate(annotation.annotated_tokens(),
                                   nlidb.header_tokens(example.table),
                                   nlidb._symbols(annotation))
        assert not graph_spy

    def test_annotation_builds_no_graph(self, nlidb, corpus, graph_spy,
                                        monkeypatch):
        # Influence gradients come from the classifier's numpy pass.
        from repro.core import annotator as annotator_module
        located = []
        original = annotator_module.compute_influence

        def counting(classifier, pairs, **kwargs):
            located.extend(pairs)
            return original(classifier, pairs, **kwargs)

        monkeypatch.setattr(annotator_module, "compute_influence", counting)
        for example in corpus[:8]:
            nlidb.annotate(example.question_tokens, example.table)
        assert located
        assert not graph_spy

    def test_spy_itself_detects_graphs(self, graph_spy):
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        (x * x).sum().backward()
        assert graph_spy


class TestAllocationBudget:
    """The float32 kernels' allocation contract, as a regression test.

    The no-graph spy above proves the fast paths build no *autodiff*
    state; these pin the stronger property: a warm translation — and
    each kernel in it — performs zero ``Tensor`` constructions at all.
    Training builds a graph, but a recurrent cell adds one node to it
    per call and the classifier's char CNN one per word, however long.
    """

    @staticmethod
    def _request(nlidb, example):
        annotation = nlidb.annotate(example.question_tokens, example.table)
        return (annotation.annotated_tokens(),
                nlidb.header_tokens(example.table),
                nlidb._symbols(annotation))

    def test_warm_decode_constructs_zero_tensors(self, nlidb, corpus):
        source, headers, symbols = self._request(nlidb, corpus[0])
        nlidb.translator.translate(source, headers, symbols)  # warm caches
        before = allocation_events()
        nlidb.translator.translate(source, headers, symbols)
        assert allocation_events() - before == 0

    def test_tensor_mode_still_allocates(self, nlidb, corpus):
        # Differential control: the float64 Tensor forward of the same
        # model builds Tensors — proving the zero above is the float32
        # kernels' doing, not a measurement artifact.
        source, headers, symbols = self._request(nlidb, corpus[0])
        predicted = nlidb.translator.translate(source, headers, symbols)
        pair = TrainingPair(source, predicted, headers, symbols)
        before = allocation_events()
        with no_grad():
            nlidb.translator.loss(pair)
        assert allocation_events() - before > 100

    def test_warm_classifier_scoring_is_allocation_free(self, nlidb, corpus):
        classifier = nlidb.annotator.column_classifier
        example = corpus[0]
        columns = [tokenize(c) for c in example.table.column_names]
        encoded = classifier.encode_columns(columns)
        classifier.score_columns(example.question_tokens, encoded=encoded)
        before = allocation_events()
        classifier.score_columns(example.question_tokens, encoded=encoded)
        assert allocation_events() - before == 0

    def test_cold_schema_columns_construct_zero_tensors(self, nlidb, corpus):
        # A schema-cache miss: the fresh encoding's column BiLSTM runs on
        # the first read of ``columns``.
        example = corpus[0]
        before = allocation_events()
        schema = build_schema_encoding(nlidb.annotator, example.table)
        encoded = schema.columns
        assert allocation_events() - before == 0
        assert len(encoded) == len(example.table.column_names)

    def test_warm_translate_constructs_zero_tensors(self, nlidb, corpus):
        # The whole serving path: annotation (value and column scoring,
        # influence, the cached schema encoding), translation, recovery.
        for example in corpus[:8]:
            nlidb.translate(example.question_tokens, example.table)
        before = allocation_events()
        for example in corpus[:8]:
            nlidb.translate(example.question_tokens, example.table)
        assert allocation_events() - before == 0

    @pytest.mark.parametrize("cell_type", [LSTMCell, GRUCell])
    def test_training_cell_call_is_one_node(self, cell_type):
        # A grad-enabled cell call is one autodiff node (an LSTM cell's
        # node plus a slice per state), whatever its gate count.
        cell = cell_type(5, 4, np.random.default_rng(0))
        x = Tensor(np.ones((3, 5)), requires_grad=True)
        state = [Tensor(np.zeros((3, 4)), requires_grad=True)
                 for _ in range(2 if cell_type is LSTMCell else 1)]
        before = allocation_events()
        cell(x, *state)
        assert allocation_events() - before <= 3

    def test_training_forward_tensors_ignore_word_length(self):
        # The char CNN is one node per distinct word and the network
        # above the column encoder one node per forward, so a training
        # step's graph does not grow with the characters of its words.
        classifier = ColumnMentionClassifier(WordEmbeddings(dim=32, seed=0))

        def tensors(question, column):
            before = allocation_events()
            classifier.forward([(question, column)])
            return allocation_events() - before

        assert tensors(["ab", "cd", "ef"], ["gh", "ij"]) == tensors(
            ["abcdefghijkl", "mnopqrstuvw", "xyzxyzxyzxyz"],
            ["population", "millions"])

    def test_warm_influence_constructs_zero_tensors(self, nlidb, corpus):
        # With the column side taken from cached schema rows, the
        # adversarial pass is numpy end to end.
        annotator = nlidb.annotator
        example = corpus[0]
        schema, _status = annotator.schema_encoding(example.table)
        names = list(example.table.column_names)
        pairs = [(example.question_tokens, tokenize(name)) for name in names]
        encoded = schema.encoded_subset(names)
        classifier = annotator.column_classifier
        compute_influence(classifier, pairs, encoded=encoded)
        before = allocation_events()
        profiles = compute_influence(classifier, pairs, encoded=encoded)
        assert allocation_events() - before == 0
        assert len(profiles) == len(names)
