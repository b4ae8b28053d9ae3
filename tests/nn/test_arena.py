"""Float32 inference kernels, weight snapshots, and grad-mode scoping.

Every hot inference op has a float32 "kernel twin" that computes on
plain numpy arrays instead of building Tensors.  These tests pin three
contracts: numerical parity between each twin and its float64 Tensor
original (float32 round-off tolerance), the per-generation caching of
the float32 weight snapshots, and the thread-locality of the
``no_grad`` switch that lets twins run concurrently with training
threads.
"""

import threading

import numpy as np
import pytest

from repro.nn import (
    BiGRU,
    BiLSTM,
    GRUCell,
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
    def test_lstm_cell_step_matches_forward(self, rng):
        cell = LSTMCell(6, 4, rng)
        x = rng.standard_normal((3, 6))
        h = rng.standard_normal((3, 4))
        c = rng.standard_normal((3, 4))
        ref_h, ref_c = cell(Tensor(x), Tensor(h), Tensor(c))

        xh = np.concatenate([x, h], axis=1).astype(np.float32)
        h_out, c_out = cell.step_np(xh, c.astype(np.float32))
        np.testing.assert_allclose(h_out, ref_h.numpy(), atol=1e-6)
        np.testing.assert_allclose(c_out, ref_c.numpy(), atol=1e-6)

    def test_gru_cell_step_matches_forward(self, rng):
        cell = GRUCell(5, 4, rng)
        x = rng.standard_normal((2, 5))
        h = rng.standard_normal((2, 4))
        ref = cell(Tensor(x), Tensor(h))

        xh = np.concatenate([x, h], axis=1).astype(np.float32)
        h_out = cell.step_np(xh, h.astype(np.float32))
        np.testing.assert_allclose(h_out, ref.numpy(), atol=1e-6)

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

    def test_bilstm_forward_batch_np_matches(self, rng):
        net = BiLSTM(3, 4, rng)
        t, b = 4, 2
        inputs = rng.standard_normal((t, b, 3))
        lengths = np.array([4, 2])
        ref = net([Tensor(inputs[i]) for i in range(t)], lengths)

        out = net.forward_batch_np(inputs.astype(np.float32), lengths)
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
        ref_ctx = att.forward_padded(tiled, att.memory_proj(tiled),
                                     Tensor(queries), Tensor(np.zeros((3, 7))))

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
