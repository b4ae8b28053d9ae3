"""Context-free mention candidates: string, edit, semantic, and
knowledge-base matching.

Covers the cases the paper resolves *without* the neural classifier
(Section III footnote, Section VII-A.1: "string match with edit
distances and semantic distances to detect mentions that are
context-free"), plus the optional database-specific metadata of
Section II (phrases ``P_c`` and describing expressions ``D_c``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from repro.text import (
    KnowledgeBase,
    WordEmbeddings,
    is_stop_word,
    levenshtein,
    tokenize,
)

__all__ = ["MentionCandidate", "ColumnMatcher", "cell_index"]


@dataclass(frozen=True)
class MentionCandidate:
    """One candidate mention of ``column`` at span ``[start, end)``."""

    column: str
    start: int
    end: int
    score: float
    method: str  # "exact" | "edit" | "semantic" | "knowledge"


class ColumnMatcher:
    """Detects context-free column mentions in a question."""

    def __init__(self, embeddings: WordEmbeddings,
                 knowledge: KnowledgeBase | None = None,
                 edit_threshold: float = 0.72,
                 semantic_threshold: float = 0.82,
                 max_span: int = 4):
        self.embeddings = embeddings
        self.knowledge = knowledge or KnowledgeBase()
        self.edit_threshold = edit_threshold
        self.semantic_threshold = semantic_threshold
        self.max_span = max_span

    # ------------------------------------------------------------------

    def best(self, tokens: list[str], columns: Sequence[str],
             ) -> list[MentionCandidate | None]:
        """Best context-free candidate of each column, or ``None``.

        One pass per question: the spans (starts that are not stop
        words, at most ``max_span`` tokens) and their joined surfaces
        are enumerated once, and each span's phrase vector is computed
        at most once, for all ``columns``.  Per column the rungs run in
        priority order and the first rung with a hit decides:

        1. exact token-sequence match of the column name, lowest start;
        2. a knowledge-base phrase ``P_c`` or describing expression
           ``D_c`` (score 0.95), lowest ``(start, end)``;
        3. edit similarity ``1 - d/longest`` of span surface and column
           in ``[edit_threshold, 1)``, best score then lowest span;
        4. cosine similarity of mean-pooled phrase vectors at least
           ``semantic_threshold``, over spans of at most one token more
           than the column, best score then lowest span.

        Within a rung the winner is the one the rung's
        ``(-score, start, end)`` order puts first, so no lower rung is
        computed once a higher one hits.  The edit rung skips a span
        whose length difference alone puts it under the threshold and
        bounds the distance it computes (see DESIGN.md, "Mention
        matcher").  No candidate is ever an empty span.
        """
        spans = []
        for start in range(len(tokens)):
            if is_stop_word(tokens[start]):
                continue
            for end in range(start + 1,
                             min(start + self.max_span, len(tokens)) + 1):
                spans.append((start, end, " ".join(tokens[start:end])))
        vectors: dict[str, tuple] = {}
        return [self._exact(tokens, column)
                or self._knowledge(tokens, column)
                or self._edit(spans, column)
                or self._semantic(spans, vectors, column)
                for column in columns]

    def _exact(self, tokens: list[str], column: str):
        column_tokens = tokenize(column.lower())
        start = _first_occurrence(tokens, column_tokens)
        if start is None:
            return None
        return MentionCandidate(column, start, start + len(column_tokens),
                                1.0, "exact")

    def _knowledge(self, tokens: list[str], column: str):
        knowledge = self.knowledge.get(column)
        hits = []
        for phrase in (knowledge.mention_phrases
                       + knowledge.describing_expressions):
            phrase_tokens = tokenize(phrase)
            start = _first_occurrence(tokens, phrase_tokens)
            if start is not None:
                hits.append((start, start + len(phrase_tokens)))
        if not hits:
            return None
        start, end = min(hits)
        return MentionCandidate(column, start, end, 0.95, "knowledge")

    def _edit(self, spans: list, column: str):
        column_lower = column.lower()
        threshold = self.edit_threshold
        length = len(column_lower)
        best = None
        for start, end, surface in spans:
            size = len(surface)
            longest = max(size, length)
            # d >= |len difference|, so this bounds the similarity.
            if longest == 0 or 1.0 - abs(size - length) / longest < threshold:
                continue
            # Any d that passes the threshold is at most
            # floor((1 - threshold) * longest); one more unit absorbs
            # float rounding, and a capped result falls below it.
            bound = math.floor((1.0 - threshold) * longest) + 1
            similarity = 1.0 - levenshtein(surface, column_lower,
                                           max_distance=bound) / longest
            if (threshold <= similarity < 1.0
                    and (best is None or similarity > best.score)):
                best = MentionCandidate(column, start, end, similarity,
                                        "edit")
        return best

    def _semantic(self, spans: list, vectors: dict, column: str):
        column_lower = column.lower()
        embeddings = self.embeddings
        limit = min(self.max_span, len(tokenize(column_lower)) + 1)
        column_vector = embeddings.phrase_vector(column_lower)
        column_norm = np.linalg.norm(column_vector)
        best = None
        for start, end, surface in spans:
            if end - start > limit:
                continue
            cached = vectors.get(surface)
            if cached is None:
                # The re-tokenized surface, exactly as
                # ``WordEmbeddings.phrase_similarity`` pools it.
                vector = embeddings.phrase_vector(surface)
                cached = vectors[surface] = (vector, np.linalg.norm(vector))
            vector, norm = cached
            if norm == 0.0 or column_norm == 0.0:
                similarity = 0.0
            else:
                similarity = float(vector @ column_vector
                                   / (norm * column_norm))
            if (similarity >= self.semantic_threshold
                    and (best is None or similarity > best.score)):
                best = MentionCandidate(column, start, end, similarity,
                                        "semantic")
        return best

    # ------------------------------------------------------------------

    def find_cell_values(self, tokens: list[str], column: str,
                         index: dict) -> list[MentionCandidate]:
        """Exact question-span matches of a column's cell values.

        The obvious context-free value case: the value literally appears
        in the question.  Counterfactual values are handled separately
        by :class:`~repro.core.mention.value_classifier.ValueDetectionClassifier`.

        ``index`` is the column's :func:`cell_index` (cached per table),
        so the cost is one lookup per question token, not per row.
        Candidates come in cell order, then by position.
        """
        hits = []
        for i, token in enumerate(tokens):
            for rank, cell_tokens in index.get(token, ()):
                end = i + len(cell_tokens)
                if tuple(tokens[i:end]) == cell_tokens:
                    hits.append((rank, i, end))
        hits.sort()
        return [MentionCandidate(column, start, end, 1.0, "exact")
                for _rank, start, end in hits]


def _first_occurrence(tokens: list[str], needle: list[str]) -> int | None:
    """Lowest start of ``needle`` in ``tokens``; ``None`` if absent or
    empty (an empty needle would claim an empty span)."""
    width = len(needle)
    if width:
        for i in range(len(tokens) - width + 1):
            if tokens[i:i + width] == needle:
                return i
    return None


def cell_index(cell_tokens: Iterable[list[str]]) -> dict:
    """One column's distinct cell token sequences keyed by first token,
    each as ``(rank of first occurrence, tokens)``; cells that tokenize
    to nothing are skipped."""
    index: dict = {}
    seen: set[tuple[str, ...]] = set()
    for tokens in cell_tokens:
        key = tuple(tokens)
        if key and key not in seen:
            index.setdefault(key[0], []).append((len(seen), key))
            seen.add(key)
    return index
