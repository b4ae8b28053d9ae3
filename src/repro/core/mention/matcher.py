"""Context-free mention candidates: string, edit, semantic, and
knowledge-base matching.

Covers the cases the paper resolves *without* the neural classifier
(Section III footnote, Section VII-A.1: "string match with edit
distances and semantic distances to detect mentions that are
context-free"), plus the optional database-specific metadata of
Section II (phrases ``P_c`` and describing expressions ``D_c``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.text import (
    KnowledgeBase,
    WordEmbeddings,
    is_stop_word,
    normalized_edit_similarity,
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

    def _spans(self, tokens: list[str], max_span: int):
        for start in range(len(tokens)):
            if is_stop_word(tokens[start]):
                continue
            for end in range(start + 1, min(start + max_span, len(tokens)) + 1):
                yield start, end, " ".join(tokens[start:end])

    def find(self, tokens: list[str], column: str) -> list[MentionCandidate]:
        """All candidate mentions of ``column`` in a tokenized question.

        Candidates are sorted best-first (exact > knowledge > edit >
        semantic, then by score).
        """
        column_lower = column.lower()
        column_tokens = tokenize(column_lower)
        candidates: list[MentionCandidate] = []

        # 1. Exact token-sequence match of the column name.
        for i in range(len(tokens) - len(column_tokens) + 1):
            if tokens[i:i + len(column_tokens)] == column_tokens:
                candidates.append(MentionCandidate(
                    column, i, i + len(column_tokens), 1.0, "exact"))

        # 2. Knowledge-base phrases (P_c) and describing expressions (D_c).
        knowledge = self.knowledge.get(column)
        for phrase in (knowledge.mention_phrases
                       + knowledge.describing_expressions):
            phrase_tokens = tokenize(phrase)
            for i in range(len(tokens) - len(phrase_tokens) + 1):
                if tokens[i:i + len(phrase_tokens)] == phrase_tokens:
                    candidates.append(MentionCandidate(
                        column, i, i + len(phrase_tokens), 0.95, "knowledge"))

        # 3. Edit-distance match over spans (non-exact matching).
        for start, end, surface in self._spans(tokens, self.max_span):
            similarity = normalized_edit_similarity(surface, column_lower)
            if similarity >= self.edit_threshold and similarity < 1.0:
                candidates.append(MentionCandidate(
                    column, start, end, similarity, "edit"))

        # 4. Semantic (embedding) match over short spans.
        for start, end, surface in self._spans(
                tokens, min(self.max_span, len(column_tokens) + 1)):
            similarity = self.embeddings.phrase_similarity(surface, column_lower)
            if similarity >= self.semantic_threshold:
                candidates.append(MentionCandidate(
                    column, start, end, similarity, "semantic"))

        priority = {"exact": 0, "knowledge": 1, "edit": 2, "semantic": 3}
        candidates.sort(key=lambda c: (priority[c.method], -c.score,
                                       c.start, c.end))
        return candidates

    def best(self, tokens: list[str], column: str) -> MentionCandidate | None:
        """Best context-free candidate, or ``None`` if nothing matches."""
        found = self.find(tokens, column)
        return found[0] if found else None

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
