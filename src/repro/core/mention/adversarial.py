"""Adversarial text method for locating column mentions (Section IV-C).

Once the classifier decides that column ``c`` is mentioned in question
``q``, the fast-gradient method (FGM) finds *where*: the gradient of the
classifier's loss with respect to each word's representation measures
how influential that word is, and the mention is the contiguous span
with the highest influence:

    I(w) = α · p(dL/dE_word(w)) + β · p(dL/dE_char(w))

where ``p`` is a norm (ℓ2 by default, as in the experiments, which use
``α = 1, β = 0``).  No span supervision is needed — the method reuses
only what the classifier already learned.

The gradients come from the body the classifier trains on, without
an autodiff graph: :meth:`ColumnMentionClassifier.embedding_gradients`
runs the float64 forward of the classifier's network node once over
all pairs and its hand-written reverse only as far as the question's
embeddings, forming no parameter gradient.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ModelError
from repro.text.stopwords import is_stop_word

from repro.core.mention.column_classifier import (
    ColumnMentionClassifier,
    EncodedColumns,
)

__all__ = ["InfluenceProfile", "compute_influence", "locate_mention",
           "contrastive_profile"]

#: Per-row norms over the last axis of a gradient stack.
_NORMS = {
    "l1": lambda g: np.abs(g).sum(axis=-1),
    "l2": lambda g: np.sqrt((g * g).sum(axis=-1)),
    "linf": lambda g: np.abs(g).max(axis=-1),
}


@dataclass
class InfluenceProfile:
    """Per-word influence levels for one (question, column) pair.

    The arrays correspond to Figure 5 / Figure 7 in the paper: word- and
    character-level gradient norms plus their weighted combination.
    """

    tokens: list[str]
    word_influence: np.ndarray
    char_influence: np.ndarray
    combined: np.ndarray

    def top_token(self) -> str:
        """The single most influential token."""
        return self.tokens[int(np.argmax(self.combined))]


def compute_influence(classifier: ColumnMentionClassifier,
                      pairs: list[tuple[list[str], list[str]]], *,
                      alpha: float = 1.0, beta: float = 0.0,
                      norm: str = "l2",
                      encoded: EncodedColumns | None = None,
                      ) -> list[InfluenceProfile]:
    """The influence level ``I(w)`` of every question word, per pair.

    One call of :meth:`ColumnMentionClassifier.embedding_gradients` over
    all ``(question, column)`` pairs: a float64 numpy forward and a
    hand-written reverse pass of the *sum* of the per-pair losses, run
    only as far as the question's word and char embeddings.  No Tensor
    graph is built and no parameter gradient is computed.  Pairs share
    no activations, so each pair's ``dL/dE(w)`` is exactly what a pass
    over that pair alone would give.  ``encoded`` optionally supplies
    the cached column encodings, one row per pair.

    The loss is that of the *adversarial* label (0 = "not mentioned"):
    its per-logit gradient is σ(x), so the per-word pattern matches
    ``dL/dE(w)`` while the scale stays informative even when the
    classifier is confidently positive (the loss toward the true label
    saturates to zero gradient there).
    """
    if norm not in _NORMS:
        raise ModelError(f"unknown norm {norm!r}; choose from {sorted(_NORMS)}")
    if not pairs:
        return []
    norm_fn = _NORMS[norm]
    _logits, word_grads, char_grads = classifier.embedding_gradients(
        pairs, encoded=encoded)
    word_norms = norm_fn(word_grads)
    char_norms = norm_fn(char_grads)
    profiles = []
    for p, (question, _column) in enumerate(pairs):
        n = len(question)
        word, char = word_norms[p, :n], char_norms[p, :n]
        profiles.append(InfluenceProfile(list(question), word, char,
                                         alpha * word + beta * char))
    return profiles


def contrastive_profile(profile: InfluenceProfile,
                        background: list[InfluenceProfile],
                        ) -> InfluenceProfile:
    """Subtract the mean influence of other columns from a profile.

    Words that are influential for *every* column ("highest", "?") carry
    no column-specific information; contrasting against the table's
    other columns suppresses them.  An extension beyond the paper,
    evaluated as an ablation.
    """
    if not background:
        return profile
    mean_bg = np.mean([p.combined for p in background], axis=0)
    return InfluenceProfile(profile.tokens, profile.word_influence,
                            profile.char_influence,
                            profile.combined - mean_bg)


def locate_mention(profile: InfluenceProfile, max_length: int = 4,
                   rel_threshold: float = 0.5,
                   skip_stop_words: bool = True,
                   blocked: set[int] | None = None) -> tuple[int, int]:
    """Find the contiguous span with the highest influence.

    The span grows greedily around the most influential token while
    neighbours stay above ``rel_threshold`` of the peak, capped at
    ``max_length`` tokens (the paper's "maximum length of mentions").
    Stop words never *start* a mention but may be absorbed inside one.
    ``blocked`` positions (e.g. spans already claimed as values) are
    never chosen as the peak.

    Returns a ``[start, end)`` token span.
    """
    scores = profile.combined
    if len(scores) == 0:
        raise ModelError("cannot locate a mention in an empty question")
    blocked = blocked or set()

    def skippable(token: str) -> bool:
        if not any(ch.isalnum() for ch in token):
            return True  # punctuation never carries a mention
        return skip_stop_words and is_stop_word(token)

    order = np.argsort(scores)[::-1]
    peak = int(order[0])
    for idx in order:
        if int(idx) not in blocked and not skippable(profile.tokens[int(idx)]):
            peak = int(idx)
            break
    threshold = rel_threshold * scores[peak]
    start = end = peak
    while end - start + 1 < max_length:
        left_ok = start > 0 and (start - 1) not in blocked
        right_ok = end + 1 < len(scores) and (end + 1) not in blocked
        left_score = scores[start - 1] if left_ok else -np.inf
        right_score = scores[end + 1] if right_ok else -np.inf
        if left_score >= right_score and left_score >= threshold:
            start -= 1
        elif right_score > left_score and right_score >= threshold:
            end += 1
        else:
            break
    # Trim absorbed stop words / punctuation from the edges.
    while start < peak and skippable(profile.tokens[start]):
        start += 1
    while end > peak and skippable(profile.tokens[end]):
        end -= 1
    return start, end + 1
