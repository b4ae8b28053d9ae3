"""Mention detection and resolution (Section IV of the paper)."""

from repro.core.mention.adversarial import (
    InfluenceProfile,
    compute_influence,
    contrastive_profile,
    locate_mention,
)
from repro.core.mention.column_classifier import (
    ClassifierConfig,
    ColumnMentionClassifier,
    EncodedColumns,
)
from repro.core.mention.matcher import (
    ColumnMatcher,
    MentionCandidate,
    cell_index,
)
from repro.core.mention.resolution import (
    ResolvedPair,
    ValueCandidate,
    resolve_mentions,
)
from repro.core.mention.value_classifier import (
    ValueDetectionClassifier,
    candidate_spans,
)

__all__ = [
    "ClassifierConfig", "ColumnMentionClassifier", "EncodedColumns",
    "InfluenceProfile", "compute_influence", "contrastive_profile",
    "locate_mention",
    "ColumnMatcher", "MentionCandidate", "cell_index",
    "ValueDetectionClassifier", "candidate_spans",
    "ValueCandidate", "ResolvedPair", "resolve_mentions",
]
