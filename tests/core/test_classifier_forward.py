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
from hypothesis import example, given, settings
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


#: Rounding allowance of the training-gradient check, in units of
#: ``ε · max(Σ_p (|g_p| + A_p))`` over each parameter tensor (``g_p``:
#: pair p's oracle gradient; ``A_p``: the magnitudes of the attention
#: terms that cancel inside pair p, see ``attention_term_magnitudes``).
#: Batched and per-pair backward passes sum the same terms in different
#: orders, so each gradient element may differ by rounding in proportion
#: to the magnitudes of the terms it sums, however much they cancel.
#: Across pairs those are the ``|g_p|``.  Inside one pair the attention
#: gradients are differences of softmax terms far larger than their
#: result: on ``[(['how', 'score'], ['film'], 0)]`` the query
#: projection's gradient came out 1.2e5 units of ``ε · max|g|`` apart,
#: and it is within 0.03 units of ``ε · max(|g| + A)``.  Over 1,800
#: random batches the largest difference beyond ``rtol`` was 0.49 such
#: units (in ``bwd_cell.gates.weight``, whose gradient also sums over
#: time steps), so ``k`` leaves about 500x headroom, while scaling one
#: pair's gradient by ``1 + 1e-7`` exceeded 7e7 units on every batch.
ROUNDING_K = 2 ** 8
GRAD_RTOL = 1e-9
EPS = np.finfo(np.float64).eps

#: A batch on which the old ``atol=1e-18`` floor failed:
#: ``head.layers.0.weight`` differed by 1.8e-18 absolute where two
#: pairs' gradients nearly cancel.
CANCELLING_BATCH = [
    (["which"], ["which"], 0),
    (["score"], ["which", "2008", "player", "goals"], 0),
    (["player", "club", "director", "player", "player", "which", "film",
      "jerzy", "film"], ["team", "many", "goals", "many"], 0)]
#: A one-pair batch on which an allowance scaled by ``max|g|`` alone
#: failed: the attention terms of its query-projection gradient cancel.
CANCELLING_PAIR = [(["how", "score"], ["film"], 0)]


def attention_term_magnitudes(classifier, question, column, label,
                              ) -> dict[str, np.ndarray]:
    """Per attention parameter, the summed magnitudes of the terms that
    one pair's gradient adds up, read from the network's tape.

    The softmax backward ``w_i (d_i − Σ_j w_j d_j)`` (``d_i``: the
    gradient reaching weight ``i``, itself a sum over the memory) is a
    difference, and the query projection's gradient then sums those
    over question words whose ``tanh`` slopes nearly agree; each step
    is bounded by the sum of its terms' absolute values."""
    hs = classifier.config.hidden
    rows = classifier._embed_rows64(question)
    encoded = classifier.encode_columns([column])
    logits, tape = classifier._network64(
        np.stack([rows[word] for word in question])[:, None],
        np.array([len(question)]), encoded.states, encoded.lengths,
        encoded.units[:, :len(encoded.states)])
    classifier._network_reverse(tape, 1.0 / (1.0 + np.exp(-logits)) - label)
    v = np.abs(classifier.attention.v.data)
    memory = np.abs(tape.memory)                             # (1, n, H)
    sums = dict.fromkeys(["attention.query_proj.bias",
                          "attention.query_proj.weight",
                          "attention.memory_proj.weight", "attention.v"], 0.0)
    for run in tape.directions:
        d_weights = np.einsum("pnh,tph->tpn", memory,
                              np.abs(run.d_input[..., 2 * hs:]))
        d_scores = run.weights * (
            d_weights + (run.weights * d_weights).sum(axis=2, keepdims=True))
        d_hidden = d_scores[..., None] * v * (1.0 - run.hidden ** 2)
        sums["attention.query_proj.bias"] += d_hidden.sum(axis=(0, 1, 2))
        sums["attention.query_proj.weight"] += np.einsum(
            "tpq,tpa->qa", np.abs(run.query), d_hidden.sum(axis=2))
        sums["attention.memory_proj.weight"] += np.einsum(
            "pnh,tpna->ha", memory, d_hidden)
        sums["attention.v"] += np.einsum("tpna,tpn->a", np.abs(run.hidden),
                                         d_scores)
    return sums


def training_gradients(classifier, batch):
    """``(batched, per_pair, cancelled)``: the gradients of the summed
    loss over one batched forward, each pair's gradients from the
    per-pair oracle (one list per parameter, in pair order), and per
    attention parameter the pairs' summed
    :func:`attention_term_magnitudes`."""
    pairs = [(question, column) for question, column, _label in batch]
    labels = np.array([float(label) for _q, _c, label in batch])

    classifier.zero_grad()
    logits = classifier.forward(pairs)
    (binary_cross_entropy_with_logits(logits, labels)
     * float(len(pairs))).backward()
    batched = parameter_grads(classifier)

    per_pair: dict[str, list[np.ndarray]] = {name: [] for name in batched}
    for p, ((question, column), label) in enumerate(zip(pairs, labels)):
        classifier.zero_grad()
        logit, _, _ = oracles.classifier_forward_per_pair(
            classifier, question, column)
        np.testing.assert_allclose(logits.numpy()[p], logit.numpy()[0], **TOL)
        binary_cross_entropy_with_logits(logit, [label]).backward()
        for name, grad in parameter_grads(classifier).items():
            per_pair[name].append(grad)
    classifier.zero_grad()
    cancelled: dict[str, np.ndarray] = {}
    for question, column, label in batch:
        for name, terms in attention_term_magnitudes(
                classifier, question, column, label).items():
            cancelled[name] = cancelled.get(name, 0.0) + terms
    return batched, per_pair, cancelled


def assert_gradients_match(batched, per_pair, cancelled):
    """Each batched gradient equals the sum of the per-pair ones within
    ``GRAD_RTOL`` plus the rounding allowance (see ``ROUNDING_K``)."""
    for name, grads in per_pair.items():
        reference = sum(grads)  # accumulated in pair order, like .grad
        scale = (np.sum(np.abs(grads), axis=0)
                 + cancelled.get(name, 0.0)).max()
        error = np.abs(batched[name] - reference)
        bound = GRAD_RTOL * np.abs(reference) + ROUNDING_K * EPS * scale
        worst = np.unravel_index(np.argmax(error - bound), error.shape)
        assert (error <= bound).all(), (
            f"{name}{list(worst)}: batched {batched[name][worst]!r} vs "
            f"per-pair sum {reference[worst]!r}, allowed {bound[worst]:.3g}")


def assert_training_matches_oracle(classifier, batch):
    batched, per_pair, cancelled = training_gradients(classifier, batch)
    assert_gradients_match(batched, per_pair, cancelled)
    for name, grad in batched.items():
        if name.startswith(("char_encoder.", "column_rnn.")):
            # The column side and the char CNN train in this mode.
            assert np.abs(grad).sum() > 0, name


@given(batch=batches)
@example(batch=CANCELLING_BATCH)
@example(batch=CANCELLING_PAIR)
@settings(max_examples=25, deadline=None)
def test_training_gradients_match_per_pair_oracle(batch):
    assert_training_matches_oracle(CLF, batch)


@pytest.mark.parametrize("pair", range(len(CANCELLING_BATCH)))
def test_gradient_bound_catches_one_pair_off_by_1e_7(pair):
    batched, per_pair, cancelled = training_gradients(CLF, CANCELLING_BATCH)
    assert_gradients_match(batched, per_pair, cancelled)
    for grads in per_pair.values():
        grads[pair] = grads[pair] * (1 + 1e-7)
    with pytest.raises(AssertionError):
        assert_gradients_match(batched, per_pair, cancelled)


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
