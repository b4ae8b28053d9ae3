"""One-dimensional convolution for the character-level word embedder.

The paper (Section IV-B, Figure 4) builds ``E_char(w)`` by embedding each
character of a word, sliding one-dimensional convolutions of widths
``k ∈ {3,4,5,6,7}`` over the character matrix, averaging the per-slice
projections element-wise, and concatenating across widths.  The
projection is linear and shared across slices; inputs shorter than ``k``
are zero-padded so at least one slice exists.

The encoder has one body, :meth:`CharConvEncoder.forward_np`: float32
for inference, float64 for training, whose Tensor ``forward`` is ONE
node over it with a hand-written vector-Jacobian product.
"""

from __future__ import annotations

import numpy as np

from numpy.lib.stride_tricks import as_strided

from repro.errors import ShapeError
from repro.nn.layers import Linear
from repro.nn.module import Module
from repro.nn.tensor import Tensor, fused

__all__ = ["Conv1d", "CharConvEncoder"]


class Conv1d(Module):
    """The parameters of a width-``k`` 1-D convolution over a
    ``(length, channels)`` matrix: each length-``k`` slice is flattened
    through the shared ``projection`` and the slice projections are
    averaged (the paper's composition rule), in :class:`CharConvEncoder`.
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
        """Encode one word as ONE autodiff node: :meth:`forward_np` in
        float64 forward, :meth:`_vjp` backward; ``(out_dim,)``."""
        ids = np.asarray(char_ids, dtype=np.intp)
        return fused(self.forward_np(ids, np.float64), self.parameters(),
                     lambda grad: self._vjp(ids, grad))

    def _windows(self, char_ids, table: np.ndarray):
        """The word's character rows, zero-padded to the widest width,
        and per width ``(conv, windows)``: a strided ``(n, k·char_dim)``
        view of the ``n = max(length − k + 1, 1)`` sliding windows."""
        if not len(char_ids):
            raise ShapeError("CharConvEncoder received an empty character sequence")
        length, char_dim, size = len(char_ids), table.shape[1], table.itemsize
        chars = np.zeros((max(length, max(self.widths)), char_dim),
                         dtype=table.dtype)
        np.take(table, np.asarray(char_ids, dtype=np.intp), axis=0,
                out=chars[:length])
        return chars, [(conv, as_strided(
            chars, shape=(max(length - conv.width + 1, 1),
                          conv.width * char_dim),
            strides=(char_dim * size, size))) for conv in self.convs]

    def forward_np(self, char_ids: list[int],
                   dtype=np.float32) -> np.ndarray:
        """The encoder on arrays; returns ``(out_dim,)`` in ``dtype``.

        Float32 runs on the float32 weight snapshots (the inference
        kernels), float64 on the parameters themselves.  Sliding windows
        are materialized with one strided copy per width (BLAS needs
        contiguous rows).
        """
        table = (self.char_embedding.weight.data if dtype == np.float64
                 else self.char_embedding.table32())
        _chars, windows = self._windows(char_ids, table)
        per = self.convs[0].out_channels
        out = np.empty(self.out_dim, dtype=table.dtype)
        for wi, (conv, rows) in enumerate(windows):
            proj = conv.projection.forward_np(rows.copy())
            np.mean(proj, axis=0, out=out[wi * per:(wi + 1) * per])
        return out

    def _vjp(self, ids: np.ndarray, grad: np.ndarray) -> list[np.ndarray]:
        """``dL/d(char table)`` and each width's ``(dL/dW, dL/db)``, in
        :meth:`parameters` order.

        The mean hands each of a width's ``n`` windows ``g / n``: the
        weight gradient is the window sum's outer product with it, and
        every window sends ``W (g / n)`` back to the rows it covers.
        """
        table = self.char_embedding.weight.data
        chars, windows = self._windows(ids, table)
        per = self.convs[0].out_channels
        d_chars = np.zeros_like(chars)
        params = []
        for wi, (conv, rows) in enumerate(windows):
            g, n = grad[wi * per:(wi + 1) * per], len(rows)
            params += [np.outer(rows.sum(axis=0), g / n), g]
            d_window = (conv.projection.weight.data @ (g / n)).reshape(
                conv.width, -1)
            for offset in range(conv.width):
                d_chars[offset:offset + n] += d_window[offset]
        d_table = np.zeros_like(table)
        np.add.at(d_table, ids, d_chars[:len(ids)])
        return [d_table, *params]
