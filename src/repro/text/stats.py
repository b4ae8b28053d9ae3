"""Database statistics for value detection (Section II / IV-D).

A column's statistics ``s_c`` is the dimension-wise average over all
cells of the cell's average word embedding — an ``O(1)``-size summary
that characterizes the column without storing its values, which is what
lets the value classifier handle *counterfactual* values.  The average
runs over the distinct cell strings in sorted order, each weighted by
its count, so it does not depend on the order of the rows.
"""

from __future__ import annotations

from collections import Counter
from typing import Callable

import numpy as np

from repro.text.tokenizer import tokenize

__all__ = ["column_statistics", "span_statistics"]

EmbedFn = Callable[[str], np.ndarray]


def _cell_vector(cell, embed: EmbedFn, dim: int) -> np.ndarray:
    words = tokenize(str(cell))
    if not words:
        return np.zeros(dim)
    return np.mean([embed(w) for w in words], axis=0)


def column_statistics(values: list, embed: EmbedFn, dim: int) -> np.ndarray:
    """Compute ``s_c`` for a column's cell values.

    Parameters
    ----------
    values:
        The cells of the column (any type; stringified for embedding).
    embed:
        Word → vector function (e.g. combined word+char embedding,
        ``emb(w) = α·E_word(w) + β·E_char(w)`` per the paper).
    dim:
        Embedding dimension (used for empty columns).
    """
    if not values:
        return np.zeros(dim)
    counts = Counter(map(str, values))
    texts = sorted(counts)
    return counted_mean(np.stack([_cell_vector(t, embed, dim) for t in texts]),
                        [counts[t] for t in texts])


def counted_mean(vectors: np.ndarray, counts: list[int]) -> np.ndarray:
    """The mean of ``(D, dim)`` rows where row ``d`` occurs ``counts[d]``
    times: ``Σ_d counts[d] · vectors[d] / Σ_d counts[d]``, summed in row
    order."""
    weights = np.asarray(counts, dtype=np.float64)
    return (weights[:, None] * vectors).sum(axis=0) / weights.sum()


def span_statistics(tokens: list[str], embed: EmbedFn, dim: int) -> np.ndarray:
    """Compute ``s_{q[i,j]}`` — the mean embedding of a question span."""
    if not tokens:
        return np.zeros(dim)
    return np.mean([embed(w) for w in tokens], axis=0)
