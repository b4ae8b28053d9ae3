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
from repro.nn.functional import softmax, softmax_rows_, tanh_
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

    def forward_padded(self, memory: Tensor, memory_proj: Tensor,
                       queries: Tensor, pad_bias: Tensor) -> Tensor:
        """B queries, each over its own zero-padded memory: ``(B, md)``.

        ``memory`` is ``(B, T, md)`` and ``memory_proj`` its
        ``memory_proj`` projection (computed once, reused per query);
        ``pad_bias`` is a constant ``(B, T)`` tensor, 0 on live positions
        and ``-1e9`` on padding, so padding gets exactly zero weight and
        row ``b`` equals attending over row ``b``'s live prefix alone.
        One query over one memory is the ``B = 1`` case.
        """
        if memory.ndim != 3:
            raise ShapeError(
                f"padded attention memory must be 3-D, got {memory.shape}")
        b, t, attn = memory_proj.shape
        hidden = (memory_proj + self.query_proj(queries).reshape(b, 1, attn)
                  ).tanh()
        scores = (hidden.reshape(b * t, attn) @ self.v).reshape(b, t)
        weights = softmax(scores + pad_bias, axis=-1)
        return (weights.reshape(b, 1, t) @ memory).reshape(b, memory.shape[2])

    # ------------------------------------------------------------------
    # Float32 kernel twins
    # ------------------------------------------------------------------

    def project_memory_np(self, memory: np.ndarray) -> np.ndarray:
        """``W_1 memory`` once per request: ``(T, md) → (T, attn)``."""
        return self.memory_proj.forward_np(memory)

    def forward_batch_np(self, memory: np.ndarray, memory_proj: np.ndarray,
                         queries: np.ndarray,
                         ) -> tuple[np.ndarray, np.ndarray]:
        """B queries over one memory: ``(contexts, weights)``, the float32
        twin of :meth:`forward_padded` over that memory tiled B times.

        ``memory_proj`` is the ``(T, attn)`` output of
        :meth:`project_memory_np`; ``queries`` is ``(B, query_dim)``.
        The scores are softmaxed in place, so they double as the weights.
        """
        t, attn = memory_proj.shape
        b = queries.shape[0]
        qp = self.query_proj.forward_np(queries)
        hidden = tanh_(np.add(memory_proj[None, :, :], qp[:, None, :]))
        scores = np.matmul(hidden.reshape(b * t, attn),
                           self.v32()).reshape(b, t)
        return np.matmul(softmax_rows_(scores), memory), scores
