"""The column classifier's per-generation ``emb(w)`` row caches.

``emb(w) = [E_word(w); E_char(w)]`` depends only on the word and the
weights, so the classifier keeps one row per distinct word and dtype —
float32 for scoring (``score_columns_multi``), float64 for the column
encoder and influence (``encode_columns``, ``embedding_gradients``) —
until the model generation moves.  A warm call must give the bits of a
fresh classifier's cold call, a generation bump must drop every row, no
caller may write into a cached row, and threads filling a cold cache at
once must each get the single-threaded bits.
"""

import dataclasses
import sys
import threading

import numpy as np
import pytest

from repro.core.mention import ClassifierConfig, ColumnMentionClassifier
from repro.nn import CharConvEncoder, bump_generation
from repro.text import WordEmbeddings, char_ids

CONFIG = ClassifierConfig(word_dim=12, char_dim=5, char_out_per_width=3,
                          hidden=7, attention_dim=6, mlp_hidden=5, seed=2)
QUESTIONS = [["which", "film", "has", "director", "jerzy", "antczak", "?"],
             ["how", "many", "goals", "did", "the", "player", "score", "?"]]
COLUMNS = [[["film"], ["director"], ["year", "of", "release"]],
           [["player"], ["goals", "scored"], ["team", "club", "name"]]]


def make_classifier(seed: int = CONFIG.seed) -> ColumnMentionClassifier:
    return ColumnMentionClassifier(WordEmbeddings(dim=12, seed=4),
                                   dataclasses.replace(CONFIG, seed=seed))


def run_all(classifier) -> dict[str, list[np.ndarray]]:
    """Every cached-row consumer's output, as plain arrays."""
    encoded = [classifier.encode_columns(columns) for columns in COLUMNS]
    scores = classifier.score_columns_multi(list(zip(QUESTIONS, encoded)))
    pairs = [(question, column) for question, columns in zip(QUESTIONS,
                                                               COLUMNS)
             for column in columns]
    gradients = classifier.embedding_gradients(pairs)
    return {"states": [s for e in encoded for s in e.states],
            "units": [e.units for e in encoded],
            "scores": scores,
            "gradients": list(gradients)}


def assert_bit_equal(got, want):
    assert got.keys() == want.keys()
    for name in want:
        assert len(got[name]) == len(want[name]), name
        for a, b in zip(got[name], want[name]):
            assert a.dtype == b.dtype, name
            np.testing.assert_array_equal(a, b, err_msg=name)


class CharCnnCalls:
    """Counts ``CharConvEncoder.forward_np`` calls by dtype."""

    def __init__(self, monkeypatch):
        self.dtypes: list = []
        original = CharConvEncoder.forward_np

        def counting(encoder, ids, dtype=np.float32):
            self.dtypes.append(np.dtype(dtype))
            return original(encoder, ids, dtype)

        monkeypatch.setattr(CharConvEncoder, "forward_np", counting)


class TestRows:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_row_is_word_vector_and_char_cnn(self, dtype):
        classifier = make_classifier()
        for word in ("film", "antczak", "?", "a"):
            row = classifier._embed_row(word, dtype)
            want = np.concatenate(
                [classifier.embeddings.vector(word).astype(dtype),
                 classifier.char_encoder.forward_np(char_ids(word), dtype)])
            assert row.dtype == dtype
            np.testing.assert_array_equal(row, want)
            assert classifier._embed_row(word, dtype) is row

    def test_float64_rows_equal_the_training_embedder(self):
        classifier = make_classifier()
        words = ["film", "director", "?"]
        rows = classifier._embed_rows64(words)
        vectors = classifier._word_vectors(words)
        for word in words:
            np.testing.assert_array_equal(rows[word],
                                          vectors[word].numpy()[0])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_rows_are_read_only(self, dtype):
        row = make_classifier()._embed_row("film", dtype)
        with pytest.raises(ValueError):
            row[0] = 1.0


class TestWarmEqualsFresh:
    def test_warm_calls_bit_equal_to_fresh_classifier(self):
        warm = make_classifier()
        first = run_all(warm)
        again = run_all(warm)
        assert_bit_equal(again, first)
        assert_bit_equal(again, run_all(make_classifier()))

    def test_question_rows_equal_direct_char_cnn(self):
        # The float32 question side reads the cache; written out with
        # direct char-CNN rows, it gives the same memory and unit rows.
        classifier = make_classifier()
        question = QUESTIONS[0]
        classifier._question_side_np(question)
        memory, mp, q_unit = classifier._question_side_np(question)
        emb = np.stack([np.concatenate(
            [classifier.embeddings.vector(word).astype(np.float32),
             classifier.char_encoder.forward_np(char_ids(word))])
            for word in question])
        direct = classifier.question_rnn.forward_batch_np(
            emb[:, None], None)[:, 0]
        np.testing.assert_array_equal(memory, direct)
        np.testing.assert_array_equal(
            mp, classifier.attention.project_memory_np(direct))
        norms = np.sqrt(np.sum(emb * emb, axis=1, keepdims=True) + 1e-8)
        np.testing.assert_array_equal(q_unit, emb / norms)

    def test_optimizer_step_drops_every_row(self):
        classifier = make_classifier()
        run_all(classifier)
        before = classifier.state_dict()
        classifier.fit([(QUESTIONS[0], COLUMNS[0][0], 1)], epochs=1)
        assert any(not np.array_equal(before[name], array)
                   for name, array in classifier.state_dict().items()
                   if name.startswith("char_encoder."))
        stepped = run_all(classifier)
        fresh = make_classifier()
        fresh.load_state_dict(classifier.state_dict())
        assert_bit_equal(stepped, run_all(fresh))

    def test_load_state_dict_drops_every_row(self):
        classifier = make_classifier()
        run_all(classifier)
        other = make_classifier(seed=7)
        classifier.load_state_dict(other.state_dict())
        assert_bit_equal(run_all(classifier), run_all(other))


class TestCharCnnRunsOncePerWord:
    def test_cold_call_runs_each_word_once_per_dtype(self, monkeypatch):
        classifier = make_classifier()
        encoded = classifier.encode_columns(COLUMNS[0])
        calls = CharCnnCalls(monkeypatch)
        question = QUESTIONS[0] + QUESTIONS[0]
        classifier.score_columns_multi([(question, encoded)])
        assert calls.dtypes == [np.dtype(np.float32)] * len(set(question))

    def test_repeated_calls_run_no_char_cnn(self, monkeypatch):
        classifier = make_classifier()
        encoded = [classifier.encode_columns(columns) for columns in COLUMNS]
        items = list(zip(QUESTIONS, encoded))
        pairs = [(QUESTIONS[0], column) for column in COLUMNS[0]]
        classifier.score_columns_multi(items)
        classifier.embedding_gradients(pairs)
        calls = CharCnnCalls(monkeypatch)
        classifier.score_columns_multi(items)
        classifier.embedding_gradients(pairs)
        classifier.encode_columns(COLUMNS[1])
        assert calls.dtypes == []
        bump_generation()
        classifier.score_columns_multi(items[:1])
        assert len(calls.dtypes) == len(set(QUESTIONS[0]))


class TestRacingThreads:
    def test_cold_cache_threads_get_single_threaded_bits(self):
        encoded = [make_classifier().encode_columns(columns)
                   for columns in COLUMNS]
        items = list(zip(QUESTIONS, encoded))
        pairs = [(question, column) for question, columns in zip(QUESTIONS,
                                                                   COLUMNS)
                 for column in columns]

        def work(classifier):
            return (classifier.score_columns_multi(items),
                    classifier.embedding_gradients(pairs))

        want_scores, want_grads = work(make_classifier())
        shared = make_classifier()
        barrier = threading.Barrier(8, timeout=30)
        results, errors = [], []

        def worker():
            try:
                barrier.wait()
                results.append(work(shared))
            except BaseException as exc:  # surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors, errors
        assert len(results) == 8
        for scores, grads in results:
            for got, want in zip(scores, want_scores):
                np.testing.assert_array_equal(got, want)
            for got, want in zip(grads, want_grads):
                np.testing.assert_array_equal(got, want)
