"""Value Detection Classifier (Section IV-D).

Decides whether a question span ``q[i, j]`` is likely a *value* of
column ``c`` using only the column's **statistics** ``s_c`` (mean cell
embedding) — never the concrete cell set — so it generalizes to
counterfactual values.  The model is the paper's two-layer MLP:

    y = σ(W2 · ReLU(W1 · [s_c − s_span, s_c ⊙ s_span] + b1) + b2)

Candidate spans contain no stop words and are at most a few words long.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ModelError
from repro.nn import MLP, Adam, Tensor, binary_cross_entropy_with_logits
from repro.text import WordEmbeddings, is_stop_word, span_statistics

__all__ = ["ValueDetectionClassifier", "candidate_spans"]


def candidate_spans(tokens: list[str], max_length: int = 3,
                    ) -> list[tuple[int, int]]:
    """All ``[start, end)`` spans with no stop words, len ≤ max_length.

    Punctuation-only tokens are excluded as well.
    """
    spans = []
    n = len(tokens)
    for start in range(n):
        for end in range(start + 1, min(start + max_length, n) + 1):
            window = tokens[start:end]
            if any(is_stop_word(t) or not any(ch.isalnum() for ch in t)
                   for t in window):
                continue
            spans.append((start, end))
    return spans


@dataclass
class _TrainingRow:
    span_stats: np.ndarray
    col_stats: np.ndarray
    label: float


class ValueDetectionClassifier:
    """MLP over ``[s_c − s_span, s_c ⊙ s_span]`` features."""

    def __init__(self, embeddings: WordEmbeddings, hidden: int = 32,
                 seed: int = 0):
        self.embeddings = embeddings
        self.dim = embeddings.dim
        rng = np.random.default_rng(seed)
        self.mlp = MLP([2 * self.dim, hidden, 1], rng)
        self._trained = False

    # ------------------------------------------------------------------
    # Features
    # ------------------------------------------------------------------

    def features(self, span_stats: np.ndarray,
                 col_stats: np.ndarray) -> np.ndarray:
        """Build the classifier input from the two statistics vectors."""
        if span_stats.shape != (self.dim,) or col_stats.shape != (self.dim,):
            raise ModelError(
                f"statistics must have shape ({self.dim},); got "
                f"{span_stats.shape} and {col_stats.shape}")
        return np.concatenate([col_stats - span_stats, col_stats * span_stats])

    def span_stats(self, tokens: list[str]) -> np.ndarray:
        """``s_{q[i,j]}`` for a token window."""
        return span_statistics(tokens, self.embeddings.vector, self.dim)

    # ------------------------------------------------------------------
    # Training / inference
    # ------------------------------------------------------------------

    def fit(self, rows: list[tuple[np.ndarray, np.ndarray, float]],
            epochs: int = 30, lr: float = 5e-3, batch_size: int = 32,
            shuffle_seed: int = 0) -> list[float]:
        """Train on ``(span_stats, col_stats, label)`` rows."""
        if not rows:
            raise ModelError("fit() needs at least one training row")
        features = np.stack([self.features(s, c) for s, c, _ in rows])
        labels = np.array([float(l) for _, _, l in rows])
        optimizer = Adam(self.mlp.parameters(), lr=lr)
        rng = np.random.default_rng(shuffle_seed)
        order = np.arange(len(rows))
        losses = []
        for _ in range(epochs):
            rng.shuffle(order)
            total, batches = 0.0, 0
            for lo in range(0, len(order), batch_size):
                batch = order[lo:lo + batch_size]
                optimizer.zero_grad()
                logits = self.mlp(Tensor(features[batch])).reshape(len(batch))
                loss = binary_cross_entropy_with_logits(logits, labels[batch])
                loss.backward()
                optimizer.step()
                total += loss.item()
                batches += 1
            losses.append(total / batches)
        self._trained = True
        return losses

    def predict_proba(self, span_stats: np.ndarray, col_stats: np.ndarray,
                      ) -> float | np.ndarray:
        """Likelihood that the span is a value of the column.

        With 1-D ``(d,)`` statistics, one pair's probability as a float.
        With stacked ``(S, d)`` span and ``(C, d)`` column statistics,
        the ``(S, C)`` matrix of every (span, column) pair from one MLP
        forward.
        """
        single = span_stats.ndim == 1 and col_stats.ndim == 1
        if single:
            features = self.features(span_stats, col_stats).reshape(1, -1)
        elif (span_stats.ndim == col_stats.ndim == 2
              and span_stats.shape[1] == col_stats.shape[1] == self.dim):
            spans = span_stats[:, None, :]
            cols = col_stats[None, :, :]
            features = np.concatenate([cols - spans, cols * spans],
                                      axis=2).reshape(-1, 2 * self.dim)
        else:
            raise ModelError(
                f"stacked statistics must have shape (n, {self.dim}); "
                f"got {span_stats.shape} and {col_stats.shape}")
        logits = self.mlp.forward_np(features)[:, 0]
        probs = 1.0 / (1.0 + np.exp(-logits))
        if single:
            return float(probs[0])
        return probs.reshape(len(span_stats), len(col_stats))

    def predict(self, span_stats: np.ndarray, col_stats: np.ndarray,
                threshold: float = 0.5) -> bool:
        """Binary decision ``y > threshold``."""
        return self.predict_proba(span_stats, col_stats) > threshold
