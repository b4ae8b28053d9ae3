"""The batched adversarial localization against its per-pair oracle.

``compute_influence`` runs ONE masked forward and ONE backward over a
whole cohort of (question, column) pairs.  Pairs share no activations,
so each pair's ``dL/dE(w)`` must equal a pass over that pair alone —
``tests/oracles.py::influence_per_pair``, the float64 loop it replaced —
to float rounding, and the located mention spans must be identical.
The pass must also leave the shared classifier untouched: no parameter
``.grad`` written, safe to run from several threads at once.
"""

import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.mention import (
    ColumnMentionClassifier,
    EncodedColumns,
    ValueDetectionClassifier,
    candidate_spans,
    compute_influence,
    locate_mention,
)
from repro.eval import InfluenceAttack, generate_suite
from repro.text import WordEmbeddings, tokenize
from tests import oracles

EMB = WordEmbeddings(dim=32, seed=0)
CLF = ColumnMentionClassifier(EMB)
VOCAB = ["which", "film", "has", "director", "jerzy", "antczak", "?",
         "how", "many", "goals", "did", "the", "player", "score", "in",
         "2008", "of", "a", "year", "name", "position", "team", "club",
         "winning", "driver", "grand", "prix", ",", "is", "total"]

words = st.sampled_from(VOCAB)
pairs_strategy = st.lists(
    st.tuples(st.lists(words, min_size=1, max_size=20),
              st.lists(words, min_size=1, max_size=6)),
    min_size=1, max_size=12)


def assert_matches_oracle(classifier, pairs, profiles, alpha=1.0, beta=0.0,
                          norm="l2"):
    assert len(profiles) == len(pairs)
    for (question, column), profile in zip(pairs, profiles):
        reference = oracles.influence_per_pair(classifier, question, column,
                                               alpha=alpha, beta=beta,
                                               norm=norm)
        assert profile.tokens == list(question)
        for got, want in ((profile.word_influence, reference.word_influence),
                          (profile.char_influence, reference.char_influence),
                          (profile.combined, reference.combined)):
            np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-18)
        assert locate_mention(profile) == locate_mention(reference)


@given(pairs=pairs_strategy, norm=st.sampled_from(["l1", "l2", "linf"]),
       alpha=st.sampled_from([0.0, 0.5, 1.0]),
       beta=st.sampled_from([0.0, 0.25, 1.0]))
@settings(max_examples=30, deadline=None)
def test_random_cohorts_match_per_pair_oracle(pairs, norm, alpha, beta):
    profiles = compute_influence(CLF, pairs, alpha=alpha, beta=beta,
                                 norm=norm)
    assert_matches_oracle(CLF, pairs, profiles, alpha, beta, norm)


def test_empty_cohort_is_empty():
    assert compute_influence(CLF, []) == []


def _corpus_cohorts(corpus, size=8):
    """Every (question, column) pair of the corpus, in cohorts of
    ``size`` questions, so each cohort mixes several tables."""
    for lo in range(0, len(corpus), size):
        yield [(example.question_tokens, tokenize(column), example.table)
               for example in corpus[lo:lo + size]
               for column in example.table.column_names]


class TestCorpusCohorts:
    def test_corpus_cohorts_match_oracle(self, nlidb, corpus):
        classifier = nlidb.annotator.column_classifier
        checked = 0
        for cohort in _corpus_cohorts(corpus):
            pairs = [(q, c) for q, c, _table in cohort]
            assert_matches_oracle(classifier, pairs,
                                  compute_influence(classifier, pairs))
            checked += len(pairs)
        assert checked >= 200

    def test_cached_schema_columns_match_oracle(self, nlidb, corpus):
        # The production path takes column states from the cached
        # schema encodings instead of re-encoding the columns.
        annotator = nlidb.annotator
        classifier = annotator.column_classifier
        for cohort in list(_corpus_cohorts(corpus))[:3]:
            pairs = [(q, c) for q, c, _table in cohort]
            parts = []
            for question, column, table in cohort:
                schema, _status = annotator.schema_encoding(table)
                name = next(n for n in table.column_names
                            if tokenize(n) == column)
                parts.append(schema.encoded_subset([name]))
            profiles = compute_influence(
                classifier, pairs, encoded=EncodedColumns.concat(parts))
            assert_matches_oracle(classifier, pairs, profiles)

    def test_influence_drop_attack_byte_identical(self, nlidb, corpus,
                                                  monkeypatch):
        classifier = nlidb.annotator.column_classifier
        attack = [InfluenceAttack(classifier)]
        production = generate_suite(corpus, attack, seed=3).signature()

        def per_pair(clf, pairs, **kwargs):
            return [oracles.influence_per_pair(clf, q, c, **kwargs)
                    for q, c in pairs]

        monkeypatch.setattr("repro.eval.attacks.compute_influence", per_pair)
        reference = generate_suite(corpus, attack, seed=3)
        assert len(reference.variants) >= len(corpus) // 2
        assert production == reference.signature()


class TestSharedClassifierState:
    PAIRS = [(tokenize("which film did he star in ?"), ["film"]),
             (tokenize("how many goals in 2008"), ["goals", "scored"])]

    def test_parameter_grads_untouched(self):
        clf = ColumnMentionClassifier(EMB)
        sentinel = [np.full(p.shape, 7.0) for p in clf.parameters()]
        for param, grad in zip(clf.parameters(), sentinel):
            param.grad = grad.copy()
        compute_influence(clf, self.PAIRS)
        for param, grad in zip(clf.parameters(), sentinel):
            assert np.array_equal(param.grad, grad)

        fresh = ColumnMentionClassifier(EMB)
        compute_influence(fresh, self.PAIRS)
        assert all(p.grad is None for p in fresh.parameters())

    def test_concurrent_threads_get_serial_norms(self):
        cohorts = [self.PAIRS, [(tokenize("name the winning driver"),
                                 ["winning", "driver"])] * 3]
        serial = [compute_influence(CLF, pairs) for pairs in cohorts]
        barrier = threading.Barrier(len(cohorts))
        results: dict[int, list] = {}
        errors: list[BaseException] = []

        def worker(k):
            try:
                barrier.wait()
                results[k] = [compute_influence(CLF, cohorts[k])
                              for _ in range(5)]
            except BaseException as exc:  # surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(k,))
                   for k in range(len(cohorts))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors, errors
        for k, runs in results.items():
            for profiles in runs:
                for got, want in zip(profiles, serial[k]):
                    assert np.array_equal(got.word_influence,
                                          want.word_influence)
                    assert np.array_equal(got.char_influence,
                                          want.char_influence)


class TestStackedValueScoring:
    def test_matrix_matches_per_pair_calls(self):
        rng = np.random.default_rng(0)
        clf = ValueDetectionClassifier(EMB)
        rows = [(rng.normal(size=32), rng.normal(size=32), float(i % 2))
                for i in range(16)]
        clf.fit(rows, epochs=2)
        spans = rng.normal(size=(5, 32))
        columns = rng.normal(size=(3, 32))
        matrix = clf.predict_proba(spans, columns)
        assert matrix.shape == (5, 3)
        for s in range(5):
            for c in range(3):
                single = clf.predict_proba(spans[s], columns[c])
                assert isinstance(single, float)
                assert abs(matrix[s, c] - single) <= 1e-12

    def test_mismatched_shapes_raise(self):
        from repro.errors import ModelError
        clf = ValueDetectionClassifier(EMB)
        with pytest.raises(ModelError):
            clf.predict_proba(np.zeros((2, 32)), np.zeros((2, 8)))

    def test_corpus_decisions_identical(self, nlidb, corpus):
        annotator = nlidb.annotator
        value_clf = annotator.value_classifier
        threshold = annotator.config.value_threshold
        compared = 0
        for example in corpus:
            schema, _status = annotator.schema_encoding(example.table)
            tokens = example.question_tokens
            spans = candidate_spans(tokens, annotator.config.max_value_span)
            columns = [c for c in example.table.column_names
                       if c.lower() not in schema.numeric_ranges]
            if not spans or not columns:
                continue
            span_stats = [value_clf.span_stats(tokens[s:e]) for s, e in spans]
            col_stats = [schema.stats[c.lower()] for c in columns]
            matrix = value_clf.predict_proba(np.stack(span_stats),
                                             np.stack(col_stats))
            for i, s_stats in enumerate(span_stats):
                for j, c_stats in enumerate(col_stats):
                    single = value_clf.predict_proba(s_stats, c_stats)
                    assert abs(matrix[i, j] - single) <= 1e-12
                    assert (matrix[i, j] > threshold) == (single > threshold)
                    compared += 1
        assert compared >= 200

    def test_one_classifier_call_per_request(self, nlidb, corpus,
                                             monkeypatch):
        value_clf = nlidb.annotator.value_classifier
        calls = []
        original = value_clf.predict_proba

        def spy(span_stats, col_stats):
            calls.append(span_stats.shape)
            return original(span_stats, col_stats)

        monkeypatch.setattr(value_clf, "predict_proba", spy)
        for example in corpus[:20]:
            calls.clear()
            nlidb.annotator.annotate(example.question_tokens, example.table)
            assert len(calls) <= 1
