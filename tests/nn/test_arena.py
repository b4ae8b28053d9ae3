"""Arena semantics, allocation-free kernel twins, and grad-mode scoping.

Every hot inference op grew a float32 "kernel twin" that writes into
:class:`InferenceArena` slabs instead of building Tensors.  These tests
pin three contracts: the arena's reuse semantics (same key -> same
memory, warm path never grows), numerical parity between each twin and
its float64 Tensor original (float32 round-off tolerance), and the
thread-locality of the ``no_grad`` switch that lets twins run
concurrently with training threads.
"""

import threading

import numpy as np
import pytest

from repro.nn import (
    BiLSTM,
    GRUCell,
    InferenceArena,
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


class TestInferenceArena:
    def test_same_key_returns_same_memory(self):
        arena = InferenceArena()
        a = arena.take("x", (3, 4))
        b = arena.take("x", (3, 4))
        assert a.base is b.base
        assert arena.grows == 1
        assert arena.takes == 2

    def test_smaller_request_reuses_slab(self):
        arena = InferenceArena()
        arena.take("x", (8, 8))
        small = arena.take("x", (2, 2))
        assert small.shape == (2, 2)
        assert arena.grows == 1

    def test_larger_request_grows_once(self):
        arena = InferenceArena()
        arena.take("x", (2, 2))
        arena.take("x", (8, 8))
        arena.take("x", (4, 4))
        assert arena.grows == 2

    def test_reset_keeps_slabs(self):
        arena = InferenceArena()
        first = arena.take("x", (5,))
        arena.reset()
        assert arena.grows == 0 and arena.takes == 0
        again = arena.take("x", (5,))
        assert again.base is first.base
        assert arena.grows == 0  # reuse, not a fresh allocation

    def test_dtype_change_reallocates(self):
        arena = InferenceArena()
        arena.take("x", (4,), dtype=np.float32)
        arena.take("x", (4,), dtype=np.float64)
        assert arena.grows == 2

    def test_stats(self):
        arena = InferenceArena()
        arena.take("a", (4,))
        arena.take("b", (2, 2), dtype=np.float64)
        stats = arena.stats()
        assert stats["buffers"] == 2
        assert stats["bytes"] == 4 * 4 + 4 * 8
        assert stats["grows"] == 2 and stats["takes"] == 2


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
        scratch = np.empty((4, 1), dtype=np.float32)
        assert softmax_rows_(x, scratch) is x
        np.testing.assert_allclose(x, expected, atol=1e-6)
        np.testing.assert_allclose(x.sum(axis=1), 1.0, atol=1e-6)


class TestRNNKernelTwins:
    def test_lstm_cell_step_matches_forward(self, rng):
        cell = LSTMCell(6, 4, rng)
        arena = InferenceArena()
        x = rng.standard_normal((3, 6))
        h = rng.standard_normal((3, 4))
        c = rng.standard_normal((3, 4))
        ref_h, ref_c = cell(Tensor(x), Tensor(h), Tensor(c))

        xh = np.concatenate([x, h], axis=1).astype(np.float32)
        h_out = np.empty((3, 4), dtype=np.float32)
        c_out = np.empty((3, 4), dtype=np.float32)
        cell.step_np(xh, c.astype(np.float32), h_out, c_out, arena, "t")
        np.testing.assert_allclose(h_out, ref_h.numpy(), atol=1e-6)
        np.testing.assert_allclose(c_out, ref_c.numpy(), atol=1e-6)

    def test_gru_cell_step_matches_forward(self, rng):
        cell = GRUCell(5, 4, rng)
        arena = InferenceArena()
        x = rng.standard_normal((2, 5))
        h = rng.standard_normal((2, 4))
        ref = cell(Tensor(x), Tensor(h))

        xh = np.concatenate([x, h], axis=1).astype(np.float32)
        h_out = np.empty((2, 4), dtype=np.float32)
        cell.step_np(xh, h.astype(np.float32), h_out, arena, "t")
        np.testing.assert_allclose(h_out, ref.numpy(), atol=1e-6)

    def test_lstm_forward_batch_np_matches(self, rng):
        lstm = LSTM(3, 4, rng, num_layers=2)
        t, b = 5, 3
        inputs = rng.standard_normal((t, b, 3))
        lengths = np.array([5, 3, 1])
        steps = [Tensor(inputs[i]) for i in range(t)]
        ref = lstm.forward_batch(steps, lengths)

        arena = InferenceArena()
        out = lstm.forward_batch_np(inputs.astype(np.float32), lengths,
                                    arena, "t")
        for i in range(t):
            np.testing.assert_allclose(out[i], ref[i].numpy(), atol=1e-5)

    def test_bilstm_forward_batch_np_matches_and_reuses(self, rng):
        net = BiLSTM(3, 4, rng)
        t, b = 4, 2
        inputs = rng.standard_normal((t, b, 3))
        lengths = np.array([4, 2])
        ref = net.forward_batch([Tensor(inputs[i]) for i in range(t)],
                                lengths)

        arena = InferenceArena()
        out = net.forward_batch_np(inputs.astype(np.float32), lengths,
                                   arena, "t")
        for i in range(t):
            np.testing.assert_allclose(out[i], ref[i].numpy(), atol=1e-5)

        # Second pass over the same shapes must not grow the arena.
        arena.reset()
        net.forward_batch_np(inputs.astype(np.float32), lengths, arena, "t")
        assert arena.grows == 0


class TestLinearTwins:
    def test_forward_np_matches(self, rng):
        layer = Linear(6, 3, rng)
        x = rng.standard_normal((4, 6))
        ref = layer(Tensor(x)).numpy()
        out = np.empty((4, 3), dtype=np.float32)
        layer.forward_np(x.astype(np.float32), out)
        np.testing.assert_allclose(out, ref, atol=1e-6)


class TestAttentionTwin:
    def test_forward_batch_np_matches(self, rng):
        att = AdditiveAttention(memory_dim=6, query_dim=4, attention_dim=5,
                                rng=rng)
        memory = rng.standard_normal((7, 6))
        queries = rng.standard_normal((3, 4))
        ref_ctx, ref_w = att.forward_batch(Tensor(memory), Tensor(queries))

        arena = InferenceArena()
        m32 = memory.astype(np.float32)
        mp = att.project_memory_np(m32, arena, "mp")
        ctx, weights = att.forward_batch_np(
            m32, mp, queries.astype(np.float32), arena, "a")
        np.testing.assert_allclose(ctx, ref_ctx.numpy(), atol=1e-5)
        np.testing.assert_allclose(weights, ref_w.numpy(), atol=1e-5)


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
