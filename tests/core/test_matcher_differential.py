"""``ColumnMatcher.best`` over all columns vs the one-column oracle.

``best(tokens, columns)[i]`` must be exactly the first entry of
:func:`tests.oracles.find_mentions` for ``columns[i]`` (or ``None``),
with a bit-equal score: the per-question pass shares spans and span
vectors, stops at the first rung with a hit, prunes edit pairs by
length and bounds their distance, and none of that may change a
result.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.metadata import build_knowledge_base
from repro.core.mention import ColumnMatcher
from repro.text import KnowledgeBase, WordEmbeddings
from tests import oracles

EMB = WordEmbeddings(dim=32, seed=0)

#: Column words, near-misses of them (edit rung), synonyms (semantic
#: rung), stop words, punctuation, numbers, and multi-word tokens whose
#: re-tokenized surface differs from the token itself.
QUESTION_WORDS = [
    "population", "populaton", "people", "live", "film", "films", "movie",
    "director", "directr", "directed", "actor", "actress", "actres",
    "best", "name", "english", "year", "years", "launch", "date", "price",
    "cost", "level", "off", "mayo", "county", "2011", "2006-07",
    "the", "of", "what", "is", "which", "in", "a", "?", ",", "'s",
    "new york", "best actor", "film director", "Population", "",
]
COLUMN_WORDS = [
    "population", "film", "director", "actor", "actress", "best", "name",
    "english", "year", "launch", "date", "price", "new", "york", "of",
    "2011", "film director",
]

questions = st.lists(st.sampled_from(QUESTION_WORDS), min_size=0,
                     max_size=12)
columns = st.lists(st.sampled_from(COLUMN_WORDS), min_size=1,
                   max_size=3).map(" ".join)
phrases = st.lists(st.sampled_from(QUESTION_WORDS[:-1]), min_size=1,
                   max_size=3).map(" ".join)
knowledge_entries = st.lists(
    st.tuples(st.integers(0, 5), phrases, st.booleans()), max_size=4)


def knowledge_base(column_names, entries) -> KnowledgeBase:
    kb = KnowledgeBase()
    for index, phrase, describing in entries:
        column = column_names[index % len(column_names)]
        if describing:
            kb.add(column, describing_expressions=[phrase])
        else:
            kb.add(column, mention_phrases=[phrase])
    return kb


def assert_matches_oracle(matcher, tokens, column_names):
    expected = []
    for column in column_names:
        found = oracles.find_mentions(matcher, tokens, column)
        expected.append(found[0] if found else None)
    assert matcher.best(tokens, column_names) == expected


class TestBestMatchesOracle:
    @given(questions, st.lists(columns, min_size=1, max_size=6),
           knowledge_entries)
    @settings(max_examples=300, deadline=None)
    def test_default_thresholds(self, tokens, column_names, entries):
        kb = knowledge_base(column_names, entries)
        assert_matches_oracle(ColumnMatcher(EMB, knowledge=kb), tokens,
                              column_names)

    @given(questions, st.lists(columns, min_size=1, max_size=6),
           knowledge_entries, st.floats(0.0, 1.0), st.floats(0.0, 1.0),
           st.integers(1, 5))
    @settings(max_examples=300, deadline=None)
    def test_random_thresholds(self, tokens, column_names, entries,
                               edit_threshold, semantic_threshold,
                               max_span):
        kb = knowledge_base(column_names, entries)
        matcher = ColumnMatcher(EMB, knowledge=kb,
                                edit_threshold=edit_threshold,
                                semantic_threshold=semantic_threshold,
                                max_span=max_span)
        assert_matches_oracle(matcher, tokens, column_names)


@pytest.mark.parametrize("mined", [False, True],
                         ids=["no-knowledge", "mined-knowledge"])
def test_every_corpus_pair(serving_dataset, mined):
    """Every (question, column) pair of the serving corpus, with and
    without a knowledge base mined from the training split."""
    kb = build_knowledge_base(serving_dataset.train) if mined else None
    matcher = ColumnMatcher(EMB, knowledge=kb)
    pairs = 0
    for example in serving_dataset.dev:
        column_names = example.table.column_names
        assert_matches_oracle(matcher, example.question_tokens,
                              column_names)
        pairs += len(column_names)
    assert len(serving_dataset.dev) >= 54 and pairs >= 54
