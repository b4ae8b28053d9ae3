"""One-dimensional convolution for the character-level word embedder.

The paper (Section IV-B, Figure 4) builds ``E_char(w)`` by embedding each
character of a word, sliding one-dimensional convolutions of widths
``k ∈ {3,4,5,6,7}`` over the character matrix, averaging the per-slice
projections element-wise, and concatenating across widths.  The
projection is linear and shared across slices; inputs shorter than ``k``
are zero-padded so at least one slice exists.
"""

from __future__ import annotations

import numpy as np

from numpy.lib.stride_tricks import as_strided

from repro.errors import ShapeError
from repro.nn.layers import Linear
from repro.nn.module import Module
from repro.nn.tensor import Tensor, concat, stack

__all__ = ["Conv1d", "CharConvEncoder"]


class Conv1d(Module):
    """Width-``k`` 1-D convolution over a ``(length, channels)`` matrix.

    Each length-``k`` slice is flattened and passed through a shared
    linear projection; the output is the element-wise average of all
    slice projections (the paper's composition rule).
    """

    def __init__(self, width: int, in_channels: int, out_channels: int,
                 rng: np.random.Generator):
        super().__init__()
        if width < 1:
            raise ShapeError("convolution width must be >= 1")
        self.width = width
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.projection = Linear(width * in_channels, out_channels, rng)

    def forward(self, matrix: Tensor) -> Tensor:
        """Apply the convolution; returns a ``(out_channels,)`` vector."""
        if matrix.ndim != 2 or matrix.shape[1] != self.in_channels:
            raise ShapeError(
                f"Conv1d expected (length, {self.in_channels}), got {matrix.shape}")
        length = matrix.shape[0]
        if length < self.width:
            # Zero-pad so at least one slice is available.
            pad = Tensor.zeros(self.width - length, self.in_channels)
            matrix = concat([matrix, pad], axis=0)
            length = self.width
        slices = [matrix[i:i + self.width].reshape(1, self.width * self.in_channels)
                  for i in range(length - self.width + 1)]
        stacked = concat(slices, axis=0)
        projected = self.projection(stacked)
        return projected.mean(axis=0)


class CharConvEncoder(Module):
    """Multi-width character CNN producing ``E_char(w)`` for a word.

    Character embeddings are shared across convolution widths; each
    width owns its projection, and the per-width outputs are
    concatenated (Section IV-B).
    """

    def __init__(self, char_vocab_size: int, char_dim: int, out_dim_per_width: int,
                 rng: np.random.Generator, widths: tuple[int, ...] = (3, 4, 5, 6, 7)):
        super().__init__()
        from repro.nn.layers import Embedding  # local import avoids a cycle

        self.char_embedding = Embedding(char_vocab_size, char_dim, rng)
        self.convs = [Conv1d(k, char_dim, out_dim_per_width, rng) for k in widths]
        self.widths = widths
        self.out_dim = out_dim_per_width * len(widths)

    def forward(self, char_ids: list[int]) -> Tensor:
        """Encode one word given its character id sequence."""
        if not char_ids:
            raise ShapeError("CharConvEncoder received an empty character sequence")
        matrix = self.char_embedding(np.asarray(char_ids, dtype=np.intp))
        parts = [conv(matrix) for conv in self.convs]
        return concat(parts, axis=-1)

    def encode_batch(self, words_char_ids: list[list[int]]) -> Tensor:
        """Encode several words; returns ``(num_words, out_dim)``."""
        return stack([self(ids) for ids in words_char_ids], axis=0)

    def forward_np(self, char_ids: list[int]) -> np.ndarray:
        """Float32 twin of :meth:`forward`; returns ``(out_dim,)``.

        Sliding windows are materialized with one strided copy per width
        (BLAS needs contiguous rows).
        """
        if not char_ids:
            raise ShapeError("CharConvEncoder received an empty character sequence")
        table = self.char_embedding.table32()
        ids = np.asarray(char_ids, dtype=np.intp)
        char_dim = table.shape[1]
        length = len(ids)
        padded = max(length, max(self.widths))
        chars = np.zeros((padded, char_dim), dtype=np.float32)
        np.take(table, ids, axis=0, out=chars[:length])
        per = self.convs[0].out_channels
        out = np.empty(self.out_dim, dtype=np.float32)
        for wi, conv in enumerate(self.convs):
            k = conv.width
            n = max(length - k + 1, 1)
            windows = as_strided(chars, shape=(n, k * char_dim),
                                 strides=(char_dim * 4, 4))
            proj = conv.projection.forward_np(windows.copy())
            np.mean(proj, axis=0, out=out[wi * per:(wi + 1) * per])
        return out
