"""Bahdanau-style additive attention.

Used twice in the paper: inside the column-mention classifier (the
column-side LSTM attends over question states, Section IV-B part iii)
and inside the seq2seq decoder (Section V-B).  Both compute

``e_j = v^T tanh(W_1 s_j + W_2 query + b)``, ``α = softmax(e)``,
``context = Σ_j α_j s_j``.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ShapeError
from repro.nn import init
from repro.nn.arena import InferenceArena, softmax_rows_, tanh_
from repro.nn.functional import masked_softmax, softmax
from repro.nn.layers import Linear
from repro.nn.module import Module, Parameter, current_generation
from repro.nn.tensor import Tensor

__all__ = ["AdditiveAttention"]


class AdditiveAttention(Module):
    """Additive (Bahdanau) attention over a memory matrix.

    Parameters
    ----------
    memory_dim:
        Dimension of each memory vector (encoder state size).
    query_dim:
        Dimension of the query vector (decoder state / column state).
    attention_dim:
        Size of the hidden comparison space.
    """

    def __init__(self, memory_dim: int, query_dim: int, attention_dim: int,
                 rng: np.random.Generator):
        super().__init__()
        self.memory_proj = Linear(memory_dim, attention_dim, rng, bias=False)
        self.query_proj = Linear(query_dim, attention_dim, rng, bias=True)
        self.v = Parameter(init.uniform(rng, (attention_dim,), 0.1))
        self._v32_gen = -1

    def v32(self) -> np.ndarray:
        """Float32 snapshot of ``v``, cached per model generation."""
        gen = current_generation()
        if self._v32_gen != gen:
            self._v32 = np.ascontiguousarray(self.v.data, dtype=np.float32)
            self._v32_gen = gen
        return self._v32

    def scores(self, memory: Tensor, query: Tensor) -> Tensor:
        """Return unnormalized attention scores ``e`` of shape ``(T,)``.

        ``memory`` is ``(T, memory_dim)``; ``query`` is ``(query_dim,)``
        or ``(1, query_dim)``.
        """
        if memory.ndim != 2:
            raise ShapeError(f"attention memory must be 2-D, got {memory.shape}")
        if query.ndim == 1:
            query = query.reshape(1, query.shape[0])
        hidden = (self.memory_proj(memory) + self.query_proj(query)).tanh()
        return hidden @ self.v

    def forward(self, memory: Tensor, query: Tensor,
                mask: np.ndarray | None = None) -> tuple[Tensor, Tensor]:
        """Return ``(context, weights)`` for one query over the memory."""
        e = self.scores(memory, query)
        if mask is not None:
            weights = masked_softmax(e, np.asarray(mask, dtype=bool), axis=-1)
        else:
            weights = softmax(e, axis=-1)
        context = weights.reshape(1, weights.shape[0]) @ memory
        return context.reshape(memory.shape[1]), weights

    def scores_batch(self, memory: Tensor, queries: Tensor) -> Tensor:
        """Scores for B queries at once: ``(B, T)`` from ``(B, query_dim)``.

        Row ``b`` equals :meth:`scores` on ``queries[b]`` — one shared
        memory projection, one broadcast add, one flattened matmul
        instead of B independent calls.
        """
        if memory.ndim != 2:
            raise ShapeError(f"attention memory must be 2-D, got {memory.shape}")
        if queries.ndim != 2:
            raise ShapeError(f"batched queries must be 2-D, got {queries.shape}")
        t, attn = memory.shape[0], self.v.shape[0]
        b = queries.shape[0]
        hidden = (self.memory_proj(memory).reshape(1, t, attn)
                  + self.query_proj(queries).reshape(b, 1, attn)).tanh()
        return (hidden.reshape(b * t, attn) @ self.v).reshape(b, t)

    def forward_batch(self, memory: Tensor,
                      queries: Tensor) -> tuple[Tensor, Tensor]:
        """Batched :meth:`forward`: ``(contexts (B, md), weights (B, T))``."""
        weights = softmax(self.scores_batch(memory, queries), axis=-1)
        return weights @ memory, weights

    # ------------------------------------------------------------------
    # Arena kernel twins (float32, allocation-free)
    # ------------------------------------------------------------------

    def project_memory_np(self, memory: np.ndarray, arena: InferenceArena,
                          tag: str) -> np.ndarray:
        """``W_1 memory`` once per request: ``(T, md) → (T, attn)`` slab."""
        mp = arena.take(tag, (memory.shape[0], self.v.shape[0]))
        return self.memory_proj.forward_np(memory, mp)

    def scores_batch_np(self, memory_proj: np.ndarray, queries: np.ndarray,
                        arena: InferenceArena, tag: str) -> np.ndarray:
        """Arena twin of :meth:`scores_batch` given the projected memory.

        ``memory_proj`` is the ``(T, attn)`` output of
        :meth:`project_memory_np`; ``queries`` is ``(B, query_dim)``.
        Returns an arena-owned ``(B, T)`` score buffer.
        """
        t, attn = memory_proj.shape
        b = queries.shape[0]
        qp = arena.take(f"{tag}.qp", (b, attn))
        self.query_proj.forward_np(queries, qp)
        hidden = arena.take(f"{tag}.hidden", (b, t, attn))
        np.add(memory_proj[None, :, :], qp[:, None, :], out=hidden)
        tanh_(hidden)
        scores = arena.take(f"{tag}.scores", (b, t))
        np.matmul(hidden.reshape(b * t, attn), self.v32(),
                  out=scores.reshape(b * t))
        return scores

    def forward_batch_np(self, memory: np.ndarray, memory_proj: np.ndarray,
                         queries: np.ndarray, arena: InferenceArena,
                         tag: str) -> tuple[np.ndarray, np.ndarray]:
        """Arena twin of :meth:`forward_batch`: ``(contexts, weights)``.

        The returned score buffer is softmaxed in place, so it doubles
        as the weights; contexts land in their own slab.
        """
        scores = self.scores_batch_np(memory_proj, queries, arena, tag)
        softmax_rows_(scores, arena.take(f"{tag}.row", (scores.shape[0], 1)))
        contexts = arena.take(f"{tag}.ctx", (queries.shape[0], memory.shape[1]))
        np.matmul(scores, memory, out=contexts)
        return contexts, scores
