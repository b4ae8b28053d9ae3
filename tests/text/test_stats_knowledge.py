"""Tests for column statistics, stop words, and the knowledge base."""

import numpy as np
import pytest

from repro.text import (
    STOP_WORDS,
    ColumnKnowledge,
    KnowledgeBase,
    WordEmbeddings,
    column_statistics,
    is_stop_word,
    span_statistics,
)

EMB = WordEmbeddings(dim=32, seed=3)


class TestColumnStatistics:
    def test_shape(self):
        s = column_statistics(["Piotr Adamczyk", "Levan U"], EMB.vector, 32)
        assert s.shape == (32,)

    def test_empty_column(self):
        np.testing.assert_array_equal(
            column_statistics([], EMB.vector, 32), np.zeros(32))

    def test_constant_size_regardless_of_rows(self):
        small = column_statistics(["Mayo"], EMB.vector, 32)
        big = column_statistics(["Mayo"] * 500, EMB.vector, 32)
        np.testing.assert_allclose(small, big)

    def test_numeric_cells_stringified(self):
        s = column_statistics([356, 1225], EMB.vector, 32)
        assert np.isfinite(s).all()

    def test_counterfactual_value_still_near_column(self):
        """A name NOT in the column is nearer person-name stats than numbers."""
        person_stats = column_statistics(
            ["john smith", "mary johnson", "peter brown"], EMB.vector, 32)
        number_stats = column_statistics(["1225", "356", "410"], EMB.vector, 32)
        new_name = span_statistics(["alice", "walker"], EMB.vector, 32)
        d_person = np.linalg.norm(new_name - person_stats)
        d_number = np.linalg.norm(new_name - number_stats)
        assert d_person < d_number

    def test_multiword_cell_averaged_per_cell(self):
        """Each cell contributes equally regardless of its word count."""
        stats = column_statistics(["a b", "c"], EMB.vector, 32)
        manual = ((EMB.vector("a") + EMB.vector("b")) / 2 + EMB.vector("c")) / 2
        np.testing.assert_allclose(stats, manual)


class TestSpanStatistics:
    def test_empty_span(self):
        np.testing.assert_array_equal(
            span_statistics([], EMB.vector, 32), np.zeros(32))

    def test_mean_of_words(self):
        s = span_statistics(["jerzy", "antczak"], EMB.vector, 32)
        manual = (EMB.vector("jerzy") + EMB.vector("antczak")) / 2
        np.testing.assert_allclose(s, manual)


class TestStopWords:
    def test_common_words_are_stop(self):
        for w in ["the", "of", "in", "did", "which"]:
            assert is_stop_word(w)

    def test_content_words_are_not(self):
        for w in ["film", "mayo", "population", "2006"]:
            assert not is_stop_word(w)

    def test_case_insensitive(self):
        assert is_stop_word("The")

    def test_frozen(self):
        assert isinstance(STOP_WORDS, frozenset)


class TestKnowledgeBase:
    def test_add_and_get(self):
        kb = KnowledgeBase()
        kb.add("Population", mention_phrases=["how many people live in"])
        knowledge = kb.get("population")
        assert "how many people live in" in knowledge.mention_phrases

    def test_get_unknown_is_empty(self):
        knowledge = KnowledgeBase().get("nothing")
        assert knowledge.mention_phrases == []
        assert knowledge.describing_expressions == []

    def test_extend_existing(self):
        kb = KnowledgeBase()
        kb.add("Price", describing_expressions=["soar"])
        kb.add("price", describing_expressions=["dive", "level off"])
        assert kb.get("PRICE").describing_expressions == ["soar", "dive", "level off"]
        assert len(kb) == 1

    def test_blank_phrases_dropped(self):
        kb = KnowledgeBase()
        kb.add("price", mention_phrases=["  ", "cost", ""],
               describing_expressions=["\t", "soar"])
        assert kb.get("price").mention_phrases == ["cost"]
        assert kb.get("price").describing_expressions == ["soar"]

    def test_columns_listing(self):
        kb = KnowledgeBase()
        kb.add("b")
        kb.add("a")
        assert kb.columns() == ["a", "b"]

    def test_column_knowledge_dataclass(self):
        ck = ColumnKnowledge(mention_phrases=["x"])
        assert ck.describing_expressions == []
