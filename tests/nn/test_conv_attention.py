"""Tests for the character-CNN encoder and additive attention.

The char CNN runs in production (one fused node per word); the padded
Tensor attention is the composed oracle in ``tests/oracles.py`` that
the column classifier's network node is checked against.
"""

import numpy as np
import pytest

from repro.errors import ShapeError
from repro.nn import AdditiveAttention, CharConvEncoder, Conv1d, Tensor
from tests import oracles

RNG = np.random.default_rng(21)


class TestConv1d:
    """A width's arithmetic runs in ``CharConvEncoder``'s node; these
    drive one width through it (the channel check is the composed
    oracle's, since the node takes character ids, not a matrix)."""

    def test_output_shape(self):
        enc = CharConvEncoder(20, 4, 6, RNG, widths=(3,))
        assert enc([1, 2, 3, 4, 5, 6, 7, 8]).shape == (6,)

    def test_short_input_zero_padded(self):
        enc = CharConvEncoder(20, 4, 6, RNG, widths=(5,))
        out = enc([1, 2])
        assert out.shape == (6,)
        assert np.isfinite(out.numpy()).all()
        conv = enc.convs[0]
        padded = np.zeros((5, 4))
        padded[:2] = enc.char_embedding.weight.data[[1, 2]]
        np.testing.assert_allclose(
            out.numpy(), conv.projection.forward_np(padded.reshape(1, -1))[0],
            rtol=1e-14)

    def test_input_exactly_width(self):
        enc = CharConvEncoder(20, 2, 4, RNG, widths=(3,))
        assert enc([1, 2, 3]).shape == (4,)

    def test_bad_channels_raises(self):
        conv = Conv1d(3, 4, 6, RNG)
        with pytest.raises(ShapeError):
            oracles.conv1d_composed(conv, Tensor(np.ones((5, 3))))

    def test_bad_width_raises(self):
        with pytest.raises(ShapeError):
            Conv1d(0, 4, 6, RNG)

    def test_shared_projection_across_slices(self):
        """A constant input makes all slices equal → output equals one slice."""
        enc = CharConvEncoder(20, 3, 4, RNG, widths=(2,))
        out = enc([7] * 6).numpy()
        single = enc([7, 7]).numpy()
        np.testing.assert_allclose(out, single, atol=1e-12)

    def test_gradient_flows(self):
        enc = CharConvEncoder(20, 4, 6, RNG, widths=(3,))
        enc([1, 2, 3, 4, 5, 6, 7, 8]).sum().backward()
        assert np.abs(enc.char_embedding.weight.grad[1:9]).sum() > 0
        assert not enc.char_embedding.weight.grad[9:].any()
        assert enc.convs[0].projection.weight.grad is not None


class TestCharConvEncoder:
    def test_output_dim_is_width_count_times_per_width(self):
        enc = CharConvEncoder(20, 5, 7, RNG, widths=(3, 4, 5))
        assert enc.out_dim == 21
        assert enc([1, 2, 3, 4]).shape == (21,)

    def test_default_paper_widths(self):
        enc = CharConvEncoder(20, 5, 4, RNG)
        assert enc.widths == (3, 4, 5, 6, 7)
        assert enc.out_dim == 20

    def test_single_char_word(self):
        enc = CharConvEncoder(20, 5, 4, RNG)
        assert enc([3]).shape == (20,)

    def test_empty_word_raises(self):
        enc = CharConvEncoder(20, 5, 4, RNG)
        with pytest.raises(ShapeError):
            enc([])

    def test_char_embedding_shared_across_widths(self):
        """Gradients from every conv width accumulate on one char table."""
        enc = CharConvEncoder(20, 5, 4, RNG, widths=(2, 3))
        enc([1, 2, 3]).sum().backward()
        assert enc.char_embedding.weight.grad is not None
        assert np.abs(enc.char_embedding.weight.grad[1]).sum() > 0

    def test_similar_words_have_similar_encodings(self):
        enc = CharConvEncoder(30, 8, 6, np.random.default_rng(3), widths=(3,))
        a = enc([1, 2, 3, 4, 5]).numpy()
        b = enc([1, 2, 3, 4, 6]).numpy()   # one char differs
        c = enc([10, 11, 12, 13, 14]).numpy()  # all chars differ
        assert np.linalg.norm(a - b) < np.linalg.norm(a - c)


# The padded Tensor attention is the classifier's composed oracle; its
# float32 serving kernel is checked against it in test_kernels.py.
forward_padded = oracles.attention_padded_composed


def attend(att, memory, query, pad_bias=None):
    """One ``(q,)`` query over one ``(T, md)`` memory: ``(1, md)``."""
    t, md = memory.shape
    memory = memory.reshape(1, t, md)
    bias = np.zeros(t) if pad_bias is None else pad_bias
    return forward_padded(att, memory, att.memory_proj(memory),
                          query.reshape(1, query.shape[-1]),
                          Tensor(bias.reshape(1, t)))


class TestAdditiveAttention:
    def test_weights_form_distribution(self):
        # Over one-hot memory rows the context is the weight vector.
        att = AdditiveAttention(7, 4, 5, RNG)
        w = attend(att, Tensor(np.eye(7)),
                   Tensor(RNG.standard_normal(4))).numpy().reshape(-1)
        assert w.shape == (7,)
        assert (w >= 0).all()
        assert w.sum() == pytest.approx(1.0)

    def test_context_is_convex_combination(self):
        att = AdditiveAttention(6, 4, 5, RNG)
        mem = RNG.standard_normal((7, 6))
        c = attend(att, Tensor(mem), Tensor(RNG.standard_normal(4))).numpy()
        assert (c <= mem.max(axis=0) + 1e-9).all()
        assert (c >= mem.min(axis=0) - 1e-9).all()

    def test_mask_excludes_positions(self):
        att = AdditiveAttention(5, 4, 5, RNG)
        pad_bias = np.array([0.0, 0.0, -1e9, -1e9, -1e9])
        w = attend(att, Tensor(np.eye(5)), Tensor(np.zeros(4)),
                   pad_bias).numpy().reshape(-1)
        assert w[2:].max() == 0.0
        assert w[:2].sum() == pytest.approx(1.0)

    def test_2d_query_accepted(self):
        att = AdditiveAttention(6, 4, 5, RNG)
        memory = Tensor(RNG.standard_normal((5, 6)))
        context = attend(att, memory, Tensor(np.zeros((1, 4))))
        assert context.shape == (1, 6)

    def test_bad_memory_raises(self):
        att = AdditiveAttention(6, 4, 5, RNG)
        with pytest.raises(ShapeError):
            forward_padded(att, Tensor(np.zeros((2, 6))),
                           Tensor(np.zeros((2, 5))),
                           Tensor(np.zeros((1, 4))),
                           Tensor(np.zeros((1, 2))))

    def test_gradients_flow_to_all_parameters(self):
        att = AdditiveAttention(6, 4, 5, RNG)
        memory = Tensor(RNG.standard_normal((5, 6)), requires_grad=True)
        query = Tensor(RNG.standard_normal(4), requires_grad=True)
        attend(att, memory, query).sum().backward()
        assert memory.grad is not None
        assert query.grad is not None
        for param in att.parameters():
            assert param.grad is not None


class TestBatchedAdditiveAttention:
    """B padded queries must match one-query calls."""

    def make(self, seed=13):
        att = AdditiveAttention(6, 4, 5, np.random.default_rng(seed))
        rng = np.random.default_rng(seed + 1)
        memory = rng.standard_normal((7, 6))
        queries = rng.standard_normal((3, 4))
        return att, memory, queries

    def test_scores_match_per_query(self):
        # One memory shared by every query: the memory tiled B times.
        att, memory, queries = self.make()
        tiled = Tensor(np.tile(memory, (3, 1, 1)))
        contexts = forward_padded(att, tiled, att.memory_proj(tiled),
                                  Tensor(queries),
                                  Tensor(np.zeros((3, 7)))).numpy()
        assert contexts.shape == (3, 6)
        for b in range(3):
            single = attend(att, Tensor(memory), Tensor(queries[b])).numpy()
            np.testing.assert_allclose(contexts[b], single.reshape(-1),
                                       atol=1e-12)

    def test_forward_matches_per_query(self):
        # Ragged memories: row b attends over its live prefix only.
        att, memory, queries = self.make(seed=17)
        lengths = np.array([7, 4, 2])
        padded = np.zeros((3, 7, 6))
        for b, n in enumerate(lengths):
            padded[b, :n] = memory[:n] * (b + 1)
        pad_bias = np.where(np.arange(7)[None, :] < lengths[:, None],
                            0.0, -1e9)
        padded_t = Tensor(padded)
        contexts = forward_padded(att, padded_t, att.memory_proj(padded_t),
                                  Tensor(queries), Tensor(pad_bias)).numpy()
        for b, n in enumerate(lengths):
            single = attend(att, Tensor(padded[b, :n]),
                            Tensor(queries[b])).numpy()
            np.testing.assert_allclose(contexts[b], single.reshape(-1),
                                       atol=1e-12)

    def test_gradients_flow_through_batch(self):
        att, memory, queries = self.make(seed=19)
        queries = Tensor(queries, requires_grad=True)
        tiled = Tensor(np.tile(memory, (3, 1, 1)))
        forward_padded(att, tiled, att.memory_proj(tiled), queries,
                       Tensor(np.zeros((3, 7)))).sum().backward()
        assert queries.grad is not None
        assert att.v.grad is not None
