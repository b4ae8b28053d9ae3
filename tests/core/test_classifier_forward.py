"""The column classifier's batched passes against its per-pair oracle.

``ColumnMentionClassifier.forward`` runs P (question, column) pairs as
one padded, length-masked graph for training (char CNN, column BiLSTM
and column unit vectors in the graph), and
``ColumnMentionClassifier.embedding_gradients`` runs them as one
float64 numpy forward and hand-written reverse pass to the question's
embeddings, for adversarial localization (constant column side).  Pairs
share no activations, so each row's logit must equal ``tests/oracles.py::
classifier_forward_per_pair`` — the same network run one pair, one
sequence and one attention query at a time on the cells — and the
gradient of the summed loss must equal the sum of the per-pair
gradients: for every parameter in training, and for each pair's own
embedding leaves in the numpy pass.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.mention import ColumnMentionClassifier
from repro.errors import ModelError
from repro.nn import binary_cross_entropy_with_logits
from repro.text import WordEmbeddings, tokenize
from tests import oracles

TOL = {"rtol": 1e-9, "atol": 1e-18}
CLF = ColumnMentionClassifier(WordEmbeddings(dim=32, seed=0))
# A small vocabulary, so questions repeat words (ties in the max
# similarity feature) and columns share words with their questions.
VOCAB = ["which", "film", "director", "jerzy", "?", "how", "many",
         "goals", "the", "player", "score", "2008", "team", "club"]

words = st.sampled_from(VOCAB)
# Columns run past max_column_words (4) to exercise truncation.
batches = st.lists(
    st.tuples(st.lists(words, min_size=1, max_size=9),
              st.lists(words, min_size=1, max_size=6),
              st.integers(0, 1)),
    min_size=1, max_size=6)


def parameter_grads(classifier) -> dict[str, np.ndarray]:
    return {name: (np.zeros_like(param.data) if param.grad is None
                   else param.grad.copy())
            for name, param in classifier.named_parameters()}


def assert_training_matches_oracle(classifier, batch):
    pairs = [(question, column) for question, column, _label in batch]
    labels = np.array([float(label) for _q, _c, label in batch])

    classifier.zero_grad()
    logits = classifier.forward(pairs)
    (binary_cross_entropy_with_logits(logits, labels)
     * float(len(pairs))).backward()
    batched = parameter_grads(classifier)

    classifier.zero_grad()
    for p, ((question, column), label) in enumerate(zip(pairs, labels)):
        logit, _, _ = oracles.classifier_forward_per_pair(
            classifier, question, column)
        np.testing.assert_allclose(logits.numpy()[p], logit.numpy()[0], **TOL)
        binary_cross_entropy_with_logits(logit, [label]).backward()
    reference = parameter_grads(classifier)
    classifier.zero_grad()

    for name, grad in reference.items():
        np.testing.assert_allclose(batched[name], grad, err_msg=name, **TOL)
        if name.startswith(("char_encoder.", "column_rnn.")):
            # The column side and the char CNN train in this mode.
            assert np.abs(batched[name]).sum() > 0, name


@given(batch=batches)
@settings(max_examples=25, deadline=None)
def test_training_gradients_match_per_pair_oracle(batch):
    assert_training_matches_oracle(CLF, batch)


@given(batch=batches)
@settings(max_examples=25, deadline=None)
def test_capture_leaf_gradients_match_per_pair_oracle(batch):
    # The numpy pass differentiates the loss toward label 0 (Section
    # IV-C), so the oracle's leaves take that loss too.
    pairs = [(question, column) for question, column, _label in batch]
    logits, word_grads, char_grads = CLF.embedding_gradients(pairs)

    for p, (question, column) in enumerate(pairs):
        logit, words_ref, chars_ref = oracles.classifier_forward_per_pair(
            CLF, question, column, capture=True)
        np.testing.assert_allclose(logits[p], logit.numpy()[0], **TOL)
        binary_cross_entropy_with_logits(logit, [0.0]).backward()
        for i in range(len(question)):
            np.testing.assert_allclose(word_grads[p, i],
                                       words_ref[i].grad.reshape(-1), **TOL)
            np.testing.assert_allclose(char_grads[p, i],
                                       chars_ref[i].grad.reshape(-1), **TOL)
        assert not word_grads[p, len(question):].any()
        assert not char_grads[p, len(question):].any()
    CLF.zero_grad()


def test_trained_classifier_on_corpus_pairs(nlidb, corpus):
    # The session model's weights, on real questions and column names.
    classifier = nlidb.annotator.column_classifier
    for example in corpus[:4]:
        batch = [(example.question_tokens, tokenize(name), p % 2)
                 for p, name in enumerate(example.table.column_names)]
        assert_training_matches_oracle(classifier, batch)


def test_encoded_rows_must_match_pairs():
    encoded = CLF.encode_columns([["film"], ["director"]])
    with pytest.raises(ModelError):
        CLF.embedding_gradients([(["which", "film"], ["film"])],
                                encoded=encoded)
