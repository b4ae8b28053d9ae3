"""Core feed-forward layers: Linear, Embedding, MLP, Dropout.

These layers are the building blocks shared by the paper's classifier
(Section IV-B), value detector (Section IV-D), and seq2seq translator
(Section V).
"""

from __future__ import annotations

import numpy as np

from repro.errors import ShapeError
from repro.nn import init
from repro.nn.functional import dropout as dropout_fn, sigmoid_, tanh_
from repro.nn.module import Module, Parameter, bump_generation, current_generation
from repro.nn.tensor import Tensor

__all__ = ["Linear", "Embedding", "MLP", "Dropout", "LayerNorm"]


class Linear(Module):
    """Affine transformation ``y = x W + b``."""

    def __init__(self, in_features: int, out_features: int,
                 rng: np.random.Generator, bias: bool = True):
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(init.xavier_uniform(rng, in_features, out_features))
        self.bias = Parameter(init.zeros((out_features,))) if bias else None
        self._w32_gen = -1

    def forward(self, x: Tensor) -> Tensor:
        if x.shape[-1] != self.in_features:
            raise ShapeError(
                f"Linear expected last dim {self.in_features}, got {x.shape}")
        out = x @ self.weight
        if self.bias is not None:
            out = out + self.bias
        return out

    def weights32(self) -> tuple[np.ndarray, np.ndarray | None]:
        """Return float32 ``(W, b)`` snapshots, cached per model generation."""
        gen = current_generation()
        if self._w32_gen != gen:
            self._w32 = np.ascontiguousarray(self.weight.data, dtype=np.float32)
            self._b32 = (np.ascontiguousarray(self.bias.data, dtype=np.float32)
                         if self.bias is not None else None)
            self._w32_gen = gen
        return self._w32, self._b32

    def forward_np(self, x: np.ndarray) -> np.ndarray:
        """Float32 kernel twin of :meth:`forward`: ``x W32 + b32``.

        A one-output layer is a per-row dot product, not a matmul: BLAS
        hands an ``N = 1`` gemm to gemv, which rounds a row differently
        depending on its position in the batch, so a row's output would
        change with the rows stacked around it.
        """
        w, b = self.weights32()
        if w.shape[1] == 1:
            out = np.einsum("...j,j->...", x, w[:, 0])[..., None]
        else:
            out = np.matmul(x, w)
        if b is not None:
            out += b
        return out


class Embedding(Module):
    """Lookup table mapping integer token ids to dense vectors."""

    def __init__(self, num_embeddings: int, embedding_dim: int,
                 rng: np.random.Generator, scale: float = 0.1):
        super().__init__()
        self.num_embeddings = num_embeddings
        self.embedding_dim = embedding_dim
        self.weight = Parameter(init.uniform(rng, (num_embeddings, embedding_dim), scale))
        self._t32_gen = -1

    def table32(self) -> np.ndarray:
        """Float32 snapshot of the table, cached per model generation."""
        gen = current_generation()
        if self._t32_gen != gen:
            self._t32 = np.ascontiguousarray(self.weight.data, dtype=np.float32)
            self._t32_gen = gen
        return self._t32

    def forward(self, indices) -> Tensor:
        idx = np.asarray(indices, dtype=np.intp)
        if idx.size and (idx.min() < 0 or idx.max() >= self.num_embeddings):
            raise ShapeError(
                f"embedding index out of range [0, {self.num_embeddings}): "
                f"min={idx.min()} max={idx.max()}")
        return self.weight.take_rows(idx)

    def load_pretrained(self, matrix: np.ndarray, freeze: bool = False) -> None:
        """Initialize the table from a pre-computed embedding matrix."""
        if matrix.shape != self.weight.data.shape:
            raise ShapeError(
                f"pretrained matrix shape {matrix.shape} != table shape "
                f"{self.weight.data.shape}")
        self.weight.data = np.asarray(matrix, dtype=np.float64).copy()
        if freeze:
            self.weight.requires_grad = False
        bump_generation()


class Dropout(Module):
    """Inverted dropout layer; a no-op in eval mode."""

    def __init__(self, rate: float, rng: np.random.Generator):
        super().__init__()
        self.rate = rate
        self._rng = rng

    def forward(self, x: Tensor) -> Tensor:
        return dropout_fn(x, self.rate, self._rng, training=self.training)


class LayerNorm(Module):
    """Layer normalization over the last axis (used by the Transformer
    ablation)."""

    def __init__(self, dim: int, eps: float = 1e-5):
        super().__init__()
        self.dim = dim
        self.eps = eps
        self.gain = Parameter(np.ones(dim))
        self.bias = Parameter(np.zeros(dim))

    def forward(self, x: Tensor) -> Tensor:
        if x.shape[-1] != self.dim:
            raise ShapeError(
                f"LayerNorm expected last dim {self.dim}, got {x.shape}")
        mean = x.mean(axis=-1, keepdims=True)
        centered = x - mean
        var = (centered * centered).mean(axis=-1, keepdims=True)
        normed = centered / ((var + self.eps) ** 0.5)
        return normed * self.gain + self.bias


class MLP(Module):
    """Multi-layer perceptron with ReLU hidden activations.

    Used as the prediction head of the column-mention classifier and as
    the entire value-detection classifier.
    """

    def __init__(self, sizes: list[int], rng: np.random.Generator,
                 output_activation: str | None = None,
                 hidden_activation: str = "relu"):
        super().__init__()
        if len(sizes) < 2:
            raise ShapeError("MLP needs at least input and output sizes")
        if hidden_activation not in ("relu", "tanh"):
            raise ShapeError(f"unknown hidden activation {hidden_activation!r}")
        self.layers = [Linear(a, b, rng) for a, b in zip(sizes[:-1], sizes[1:])]
        self.output_activation = output_activation
        self.hidden_activation = hidden_activation

    def forward(self, x: Tensor) -> Tensor:
        for layer in self.layers[:-1]:
            x = layer(x)
            x = x.tanh() if self.hidden_activation == "tanh" else x.relu()
        x = self.layers[-1](x)
        if self.output_activation == "sigmoid":
            x = x.sigmoid()
        elif self.output_activation == "tanh":
            x = x.tanh()
        elif self.output_activation is not None:
            raise ShapeError(f"unknown activation {self.output_activation!r}")
        return x

    def forward_np(self, x: np.ndarray) -> np.ndarray:
        """Float32 twin of :meth:`forward` on a ``(batch, in)`` array.

        Only ``tanh`` hidden and ``sigmoid``/``tanh`` output activations
        are supported — the two configurations the frozen classifier
        heads use.
        """
        for i, layer in enumerate(self.layers):
            x = layer.forward_np(x)
            if i < len(self.layers) - 1:
                if self.hidden_activation == "tanh":
                    tanh_(x)
                else:
                    np.maximum(x, 0.0, out=x)
        if self.output_activation == "sigmoid":
            sigmoid_(x)
        elif self.output_activation == "tanh":
            tanh_(x)
        return x
