"""Numpy kernels, weight snapshots, and grad-mode scoping.

Every hot inference op has a float32 "kernel twin" that computes on
plain numpy arrays instead of building Tensors.  These tests pin six
contracts: numerical parity between each twin and its float64 Tensor
original (float32 round-off tolerance), the fused RNN cell nodes
against the composed Tensor cells (outputs bit for bit, gradients to
float64 round-off), the float64 runs of the twins and the LSTM cell's
hand-written backward against the Tensor graph (float64 round-off
tolerance), the column encoder's float64 BiLSTM twin against the Tensor
forward (bit for bit), the per-generation caching of the float32 weight
snapshots, and the thread-locality of the ``no_grad`` switch that lets
twins run concurrently with training threads.
"""

import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.mention import ClassifierConfig, ColumnMentionClassifier
from repro.core.seq2seq import AnnotatedSeq2Seq, Seq2SeqConfig, TrainingPair
from repro.nn import (
    BiGRU,
    BiLSTM,
    CharConvEncoder,
    LSTM,
    LSTMCell,
    Linear,
    Tensor,
    bump_generation,
    is_grad_enabled,
    no_grad,
    sigmoid_,
    softmax_rows_,
    tanh_,
)
from repro.nn.attention import AdditiveAttention
from repro.text import WordEmbeddings
from tests import oracles


@pytest.fixture()
def rng():
    return np.random.default_rng(7)


class TestInPlaceHelpers:
    def test_sigmoid_(self, rng):
        x = rng.standard_normal((3, 5)).astype(np.float32)
        expected = 1.0 / (1.0 + np.exp(-x.astype(np.float64)))
        out = sigmoid_(x)
        assert out is x
        np.testing.assert_allclose(x, expected, atol=1e-6)

    def test_tanh_(self, rng):
        x = rng.standard_normal((3, 5)).astype(np.float32)
        expected = np.tanh(x.astype(np.float64))
        assert tanh_(x) is x
        np.testing.assert_allclose(x, expected, atol=1e-6)

    def test_softmax_rows_(self, rng):
        x = rng.standard_normal((4, 7)).astype(np.float32)
        x64 = x.astype(np.float64)
        expected = np.exp(x64 - x64.max(axis=1, keepdims=True))
        expected /= expected.sum(axis=1, keepdims=True)
        assert softmax_rows_(x) is x
        np.testing.assert_allclose(x, expected, atol=1e-6)
        np.testing.assert_allclose(x.sum(axis=1), 1.0, atol=1e-6)


class TestRNNKernelTwins:
    def test_lstm_forward_batch_np_matches(self, rng):
        lstm = LSTM(3, 4, rng, num_layers=2)
        t, b = 5, 3
        inputs = rng.standard_normal((t, b, 3))
        lengths = np.array([5, 3, 1])
        steps = [Tensor(inputs[i]) for i in range(t)]
        ref = lstm(steps, lengths)

        out = lstm.forward_batch_np(inputs.astype(np.float32), lengths)
        for i in range(t):
            np.testing.assert_allclose(out[i], ref[i].numpy(), atol=1e-5)

    def test_bigru_padded_lane_bit_equal_to_unpadded(self, rng):
        # The translator encodes a cohort of ragged questions in one
        # masked pass.  A lane's states must not depend on how long its
        # partners are: [x, x] (no mask) and [x, longer] (x padded) have
        # the same row count per cell step, so any difference is the
        # hold's doing (e.g. padding steps leaking into the backward
        # direction).
        net = BiGRU(32, 24, rng, num_layers=2)
        x = rng.standard_normal((5, 32)).astype(np.float32)
        longer = rng.standard_normal((9, 32)).astype(np.float32)

        def encode(partner):
            total = max(len(x), len(partner))
            inputs = np.zeros((total, 2, 32), dtype=np.float32)
            inputs[:len(x), 0] = x
            inputs[:len(partner), 1] = partner
            lengths = np.array([len(x), len(partner)])
            out = net.forward_batch_np(inputs, lengths)
            return out[:len(x), 0].copy()

        assert np.array_equal(encode(x), encode(longer))


FUSED_TOL = {"rtol": 1e-12, "atol": 1e-15}


def _run(module, leaves, forward):
    """Outputs of ``forward()`` and the gradients, w.r.t. ``leaves`` and
    every parameter, of a fixed random projection of them."""
    module.zero_grad()
    for leaf in leaves:
        leaf.zero_grad()
    outs = forward()
    weights = np.random.default_rng(0)
    loss = sum((out * Tensor(weights.standard_normal(out.shape))).sum()
               for out in outs)
    loss.backward()
    grads = [t.grad for t in leaves + module.parameters()]
    return [out.numpy().copy() for out in outs], \
        [None if g is None else g.copy() for g in grads]


def _assert_fused_matches_composed(module, leaves, forward, exact=True):
    """Fused nodes against the composed graphs of ``tests/oracles.py``:
    outputs equal (or within rtol 1e-12), gradients within FUSED_TOL."""
    fused_outs, fused_grads = _run(module, leaves, forward)
    with oracles.composed_cells(), oracles.composed_classifier():
        outs, grads = _run(module, leaves, forward)
    assert len(fused_outs) == len(outs)
    for ours, theirs in zip(fused_outs, outs):
        if exact:
            assert np.array_equal(ours, theirs)
        else:
            np.testing.assert_allclose(ours, theirs, rtol=1e-12)
    assert [g is None for g in fused_grads] == [g is None for g in grads]
    for ours, theirs in zip(fused_grads, grads):
        if theirs is not None:
            np.testing.assert_allclose(ours, theirs, **FUSED_TOL)


class TestFusedCells:
    """A cell's ``forward`` is one autodiff node over ``step_np`` and
    ``step_vjp``.  Against the composed Tensor bodies in
    ``tests/oracles.py``, its outputs are equal bit for bit and its
    input and parameter gradients agree to float64 round-off, through
    the masked ragged lanes of every sequence layer and the
    translator's decoder steps."""

    # hidden >= 2: a one-output candidate layer (GRU hidden 1) is a
    # per-row dot product in Linear.forward_np, not the Tensor gemv.
    @pytest.mark.parametrize("layer", [LSTM, BiLSTM, BiGRU])
    @given(batch=st.integers(1, 5), inputs=st.integers(1, 6),
           hidden=st.integers(2, 6), layers=st.integers(1, 2),
           steps=st.integers(1, 5), data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_layer_matches_composed(self, layer, batch, inputs, hidden,
                                    layers, steps, data):
        seed = data.draw(st.integers(0, 2 ** 16), label="seed")
        lengths = np.array(data.draw(
            st.lists(st.integers(1, steps), min_size=batch,
                     max_size=batch), label="lengths"))
        rng = np.random.default_rng(seed)
        net = layer(inputs, hidden, rng, num_layers=layers)
        # Padding rows are random, not zero: the holds must ignore them.
        xs = [Tensor(x, requires_grad=True) for x in rng.standard_normal(
            (int(lengths.max()), batch, inputs))]
        _assert_fused_matches_composed(net, xs, lambda: net(xs, lengths))

    @given(seed=st.integers(0, 2 ** 16), pair=st.sampled_from(range(2)))
    @settings(max_examples=10, deadline=None)
    def test_translator_loss_matches_composed(self, seed, pair):
        # Teacher forcing runs the BiGRU encoder and one decoder-cell
        # step per target token.
        model = AnnotatedSeq2Seq(
            WordEmbeddings(dim=8, seed=1),
            Seq2SeqConfig(hidden=5, attention_dim=4, seed=seed))
        pair = [
            TrainingPair(["which", "c1", "film", "c2", "year", "v2", "?"],
                         ["select", "c1", "where", "c2", "=", "v2"],
                         ["film", "year"], ("c1", "v2", "c2")),
            TrainingPair(["count", "c1", "items"], ["select", "count", "c1"],
                         ["item"], ("c1",)),
        ][pair]
        _assert_fused_matches_composed(model, [], lambda: [model.loss(pair)])


class TestFusedClassifierNodes:
    """The char CNN and the column classifier's network above the column
    encoder are one autodiff node each.  Against the composed Tensor
    graphs in ``tests/oracles.py``, the char CNN's output is equal bit
    for bit and the network's logits to rtol 1e-12 (the head's
    one-output layer is a per-row dot in numpy and a gemv in the
    graph); input and parameter gradients agree to float64 round-off."""

    WORDS = ["x", "of", "film", "director", "year", "elected", "the",
             "county", "points", "a"]

    # out_channels >= 2: a one-output projection is a per-row dot
    # product in Linear.forward_np, not the Tensor gemm.  Words run
    # shorter than the widest width (zero-padded windows) and repeat
    # characters (scatter-added table rows).
    @given(char_dim=st.integers(1, 5), per=st.integers(2, 4),
           widths=st.lists(st.integers(1, 7), min_size=1, max_size=3,
                           unique=True),
           words=st.lists(st.lists(st.integers(0, 9), min_size=1,
                                   max_size=9), min_size=1, max_size=4),
           seed=st.integers(0, 2 ** 16))
    @settings(max_examples=40, deadline=None)
    def test_char_cnn_matches_composed(self, char_dim, per, widths, words,
                                       seed):
        encoder = CharConvEncoder(10, char_dim, per,
                                  np.random.default_rng(seed),
                                  widths=tuple(widths))
        _assert_fused_matches_composed(
            encoder, [], lambda: [encoder(ids) for ids in words])

    @given(hidden=st.integers(2, 5), layers=st.integers(1, 2),
           max_words=st.integers(1, 4), data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_network_matches_composed(self, hidden, layers, max_words, data):
        seed = data.draw(st.integers(0, 2 ** 16), label="seed")
        q_lengths = np.array(data.draw(st.lists(
            st.integers(1, 6), min_size=1, max_size=4), label="q_lengths"))
        c_lengths = np.array(data.draw(st.lists(
            st.integers(1, max_words), min_size=len(q_lengths),
            max_size=len(q_lengths)), label="c_lengths"))
        config = ClassifierConfig(
            word_dim=4, char_dim=3, char_out_per_width=2, char_widths=(2, 3),
            hidden=hidden, question_layers=layers,
            attention_dim=data.draw(st.integers(2, 5), label="attention"),
            mlp_hidden=data.draw(st.integers(2, 5), label="mlp"),
            max_column_words=max_words, seed=seed)
        classifier = ColumnMentionClassifier(WordEmbeddings(dim=4, seed=0),
                                             config)
        rng = np.random.default_rng(seed)
        count, emb = len(q_lengths), config.emb_dim
        # Question rows drawn from three vectors, so repeated words tie
        # in the max feature; rows past a question's length are zero, as
        # pack_steps pads them.  Column-side padding is random: the
        # holds and the feature mask must ignore it.
        pool = rng.standard_normal((3, emb))
        questions = pool[rng.integers(0, 3, (int(q_lengths.max()), count))]
        questions[np.arange(len(questions))[:, None] >= q_lengths] = 0.0
        steps = [Tensor(x, requires_grad=True) for x in questions]
        states = [Tensor(x, requires_grad=True) for x in rng.standard_normal(
            (int(c_lengths.max()), count, 2 * hidden))]
        units = Tensor(rng.standard_normal((count, len(states), emb)),
                       requires_grad=True)
        _assert_fused_matches_composed(
            classifier, steps + states + [units],
            lambda: [classifier._network(steps, q_lengths, states, c_lengths,
                                         units)], exact=False)

    # Columns run past max_column_words (4); short words are narrower
    # than the widest convolution.
    @given(st.lists(st.tuples(
        st.lists(st.sampled_from(WORDS), min_size=1, max_size=7),
        st.lists(st.sampled_from(WORDS), min_size=1, max_size=6)),
        min_size=1, max_size=4))
    @settings(max_examples=20, deadline=None)
    def test_training_forward_matches_composed(self, pairs):
        classifier = TestColumnEncoderTwin.CLASSIFIER
        _assert_fused_matches_composed(
            classifier, [], lambda: [classifier.forward(pairs)], exact=False)


class TestFloat64Kernels:
    """The influence pass runs the twins in float64 on the parameters
    themselves and reverses the LSTM cell with ``step_vjp``, checked
    here against the backward of the composed Tensor cell."""

    @given(batch=st.integers(1, 5), inputs=st.integers(1, 6),
           hidden=st.integers(1, 6), steps=st.integers(1, 5),
           data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_lstm_step_vjp_matches_tensor_backward(self, batch, inputs,
                                                   hidden, steps, data):
        # A ragged batch: lanes past their length hold (h, c), as in the
        # classifier's question LSTM and attentive BiLSTM.
        seed = data.draw(st.integers(0, 2 ** 16), label="seed")
        lengths = np.array(data.draw(
            st.lists(st.integers(1, steps), min_size=batch,
                     max_size=batch), label="lengths"))
        rng = np.random.default_rng(seed)
        cell = LSTMCell(inputs, hidden, rng)
        xs = rng.standard_normal((steps, batch, inputs))
        h0, c0 = rng.standard_normal((2, batch, hidden))
        dout = rng.standard_normal((steps, batch, hidden))
        dc_last = rng.standard_normal((batch, hidden))
        live = lengths[None, :, None] > np.arange(steps)[:, None, None]

        x_leaves = [Tensor(x, requires_grad=True) for x in xs]
        h = h_leaf = Tensor(h0, requires_grad=True)
        c = c_leaf = Tensor(c0, requires_grad=True)
        loss = None
        with oracles.composed_cells():
            for t in range(steps):
                m = Tensor(live[t].astype(np.float64))
                h_new, c_new = cell(x_leaves[t], h, c)
                h = h_new * m + h * (1.0 - m)
                c = c_new * m + c * (1.0 - m)
                term = (h * Tensor(dout[t])).sum()
                loss = term if loss is None else loss + term
        (loss + (c * Tensor(dc_last)).sum()).backward()

        h, c, tape = h0, c0, []
        for t in range(steps):
            xh = np.concatenate([xs[t], h], axis=1)
            h_new, c_new = cell.step_np(xh, c)
            tape.append((xh, c))
            h = np.where(live[t], h_new, h)
            c = np.where(live[t], c_new, c)
        dh, dc = np.zeros((batch, hidden)), dc_last
        dx = np.empty_like(xs)
        dw = np.zeros_like(cell.gates.weight.data)
        db = np.zeros_like(cell.gates.bias.data)
        for t in range(steps - 1, -1, -1):
            dh = dh + dout[t]
            dxh, dc_prev, dz = cell.step_vjp(
                *tape[t], np.where(live[t], dh, 0.0),
                np.where(live[t], dc, 0.0))
            dh = np.where(live[t], 0.0, dh) + dxh[:, inputs:]
            dc = np.where(live[t], 0.0, dc) + dc_prev
            dx[t] = dxh[:, :inputs]
            dw += tape[t][0].T @ dz
            db += dz.sum(axis=0)

        tol = {"rtol": 1e-12, "atol": 1e-15}
        for t in range(steps):
            np.testing.assert_allclose(dx[t], x_leaves[t].grad, **tol)
        np.testing.assert_allclose(dh, h_leaf.grad, **tol)
        np.testing.assert_allclose(dc, c_leaf.grad, **tol)
        np.testing.assert_allclose(dw, cell.gates.weight.grad, **tol)
        np.testing.assert_allclose(db, cell.gates.bias.grad, **tol)

    def test_linear_float64_runs_on_parameters(self, rng):
        layer = Linear(6, 3, rng)
        x = rng.standard_normal((4, 6))
        out = layer.forward_np(x)
        assert out.dtype == np.float64
        np.testing.assert_allclose(out, layer(Tensor(x)).numpy(),
                                   rtol=1e-14, atol=1e-15)

    def test_char_encoder_float64_matches_forward(self, rng):
        encoder = CharConvEncoder(40, 5, 3, rng, widths=(2, 3, 7))
        for ids in ([4], [1, 2, 3], list(range(1, 12))):
            ref = oracles.char_cnn_composed(encoder, ids).numpy()
            out = encoder.forward_np(ids, np.float64)
            assert out.dtype == np.float64
            np.testing.assert_allclose(out, ref, rtol=1e-14, atol=1e-15)
            out32 = encoder.forward_np(ids)
            assert out32.dtype == np.float32
            np.testing.assert_allclose(out32, ref, atol=1e-6)


class TestColumnEncoderTwin:
    """Schema rebuilds run the column BiLSTM in float64 numpy; every
    state the mention classifier reads must equal the Tensor forward's
    bit for bit, on padded ragged batches as on single lanes."""

    CLASSIFIER = ColumnMentionClassifier(
        WordEmbeddings(dim=12, seed=4),
        ClassifierConfig(word_dim=12, char_dim=5, char_out_per_width=3,
                         hidden=7, attention_dim=6, mlp_hidden=5, seed=2))
    WORDS = ["film", "director", "year", "of", "the", "x", "points",
             "elected", "county", "state"]

    # hidden >= 2: a one-output pre-transform is a per-row dot product
    # in Linear.forward_np (see there), not the Tensor forward's gemv.
    @given(batch=st.integers(1, 6), inputs=st.integers(1, 7),
           hidden=st.integers(2, 6), layers=st.integers(1, 2),
           steps=st.integers(1, 5), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_bilstm_float64_bit_equal_to_forward(self, batch, inputs, hidden,
                                                 layers, steps, data):
        seed = data.draw(st.integers(0, 2 ** 16), label="seed")
        lengths = np.array(data.draw(
            st.lists(st.integers(1, steps), min_size=batch,
                     max_size=batch), label="lengths"))
        rng = np.random.default_rng(seed)
        net = BiLSTM(inputs, hidden, rng, num_layers=layers)
        # Padding rows are random, not zero: the holds must ignore them.
        xs = rng.standard_normal((int(lengths.max()), batch, inputs))
        ref = net([Tensor(x) for x in xs], lengths)
        out = net.forward_batch_np(xs, lengths)
        assert out.dtype == np.float64
        assert out.shape == (len(xs), batch, 2 * hidden)
        for t in range(len(xs)):
            assert np.array_equal(out[t], ref[t].numpy())

    @given(st.lists(st.lists(st.sampled_from(WORDS), min_size=1, max_size=6),
                    min_size=1, max_size=8))
    @settings(max_examples=40, deadline=None)
    def test_encode_columns_bit_equal_to_tensor_reference(self, columns):
        got = self.CLASSIFIER.encode_columns(columns)
        want = oracles.encode_columns_tensor(self.CLASSIFIER, columns)
        assert got.tokens == want.tokens
        assert np.array_equal(got.lengths, want.lengths)
        assert len(got.states) == len(want.states)
        for ours, theirs in zip(got.states, want.states):
            assert np.array_equal(ours, theirs)
        assert np.array_equal(got.units, want.units)
        for ours, theirs in zip(got.as_f32(), want.as_f32()):
            assert np.array_equal(ours, theirs)


class TestLinearTwins:
    def test_forward_np_matches(self, rng):
        layer = Linear(6, 3, rng)
        x = rng.standard_normal((4, 6))
        ref = layer(Tensor(x)).numpy()
        out = layer.forward_np(x.astype(np.float32))
        np.testing.assert_allclose(out, ref, atol=1e-6)

    def test_one_output_rows_independent_of_batch(self, rng):
        # The coalesced column scorer stacks several requests' rows
        # into one head call; each row must come out bit-equal to a
        # call over its own request's rows.
        layer = Linear(32, 1, rng)
        x = rng.standard_normal((40, 32)).astype(np.float32)
        full = layer.forward_np(x)
        np.testing.assert_allclose(full, layer(Tensor(x)).numpy(), atol=1e-5)
        for lo in range(35):
            part = layer.forward_np(x[lo:lo + 5].copy())
            assert np.array_equal(part, full[lo:lo + 5])


class TestAttentionTwin:
    def test_forward_batch_np_matches(self, rng):
        att = AdditiveAttention(memory_dim=6, query_dim=4, attention_dim=5,
                                rng=rng)
        memory = rng.standard_normal((7, 6))
        queries = rng.standard_normal((3, 4))
        # Reference: the Tensor attention over the memory tiled per query.
        tiled = Tensor(np.tile(memory, (3, 1, 1)))
        ref_ctx = oracles.attention_padded_composed(
            att, tiled, att.memory_proj(tiled), Tensor(queries),
            Tensor(np.zeros((3, 7))))

        m32 = memory.astype(np.float32)
        mp = att.project_memory_np(m32)
        ctx, weights = att.forward_batch_np(m32, mp,
                                            queries.astype(np.float32))
        np.testing.assert_allclose(ctx, ref_ctx.numpy(), atol=1e-5)
        np.testing.assert_allclose(weights.sum(axis=1), np.ones(3), atol=1e-6)
        np.testing.assert_allclose(weights @ m32, ctx, atol=1e-6)


class TestGenerationCache:
    def test_weights32_cached_until_generation_bump(self, rng):
        layer = Linear(4, 3, rng)
        w_a, _ = layer.weights32()
        w_b, _ = layer.weights32()
        assert w_a is w_b  # cached snapshot, no recomputation
        layer.weight.data[0, 0] += 1.0
        w_stale, _ = layer.weights32()
        assert w_stale is w_a  # mutation alone is invisible...
        bump_generation()
        w_fresh, _ = layer.weights32()
        assert w_fresh is not w_a  # ...until the generation moves
        np.testing.assert_allclose(w_fresh, layer.weight.data, atol=1e-6)


class TestThreadLocalGradMode:
    def test_fresh_thread_defaults_to_enabled(self):
        seen = {}

        def worker():
            seen["enabled"] = is_grad_enabled()

        with no_grad():
            thread = threading.Thread(target=worker)
            thread.start()
            thread.join()
            assert not is_grad_enabled()  # this thread is still inside
        assert seen["enabled"] is True

    def test_no_grad_does_not_leak_across_threads(self):
        entered = threading.Event()
        release = threading.Event()
        results = {}

        def inference_worker():
            with no_grad():
                entered.set()
                release.wait(timeout=5.0)
                results["worker"] = is_grad_enabled()

        thread = threading.Thread(target=inference_worker)
        thread.start()
        assert entered.wait(timeout=5.0)
        # Main thread keeps building graphs while the worker is frozen.
        results["main"] = is_grad_enabled()
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        y = (x * x).sum()
        release.set()
        thread.join()
        assert results["main"] is True
        assert results["worker"] is False
        y.backward()
        assert x.grad is not None
