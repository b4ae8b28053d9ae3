"""Tests for edit distance, embeddings, and the stemmer."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.text import (
    WordEmbeddings,
    levenshtein,
    normalized_edit_similarity,
    stem,
    synonym_group_of,
)

WORDS = st.text(alphabet="abcdefgh", min_size=0, max_size=12)
#: Small alphabets make close pairs likely; the free text adds
#: arbitrary (non-ASCII) code points.
TEXTS = st.one_of(st.text(alphabet="abcé ñ", max_size=12),
                  st.text(max_size=10))
BOUNDS = st.integers(min_value=0, max_value=8)


class TestLevenshtein:
    def test_identical(self):
        assert levenshtein("actor", "actor") == 0

    def test_known_values(self):
        assert levenshtein("kitten", "sitting") == 3
        assert levenshtein("actor", "actress") == 4

    def test_empty(self):
        assert levenshtein("", "abc") == 3
        assert levenshtein("abc", "") == 3
        assert levenshtein("", "") == 0

    @given(WORDS, WORDS)
    @settings(max_examples=60, deadline=None)
    def test_symmetry(self, a, b):
        assert levenshtein(a, b) == levenshtein(b, a)

    @given(WORDS, WORDS, WORDS)
    @settings(max_examples=40, deadline=None)
    def test_triangle_inequality(self, a, b, c):
        assert levenshtein(a, c) <= levenshtein(a, b) + levenshtein(b, c)

    @given(WORDS, WORDS)
    @settings(max_examples=60, deadline=None)
    def test_bounded_by_longest(self, a, b):
        assert levenshtein(a, b) <= max(len(a), len(b))



class TestBoundedLevenshtein:
    @given(TEXTS, TEXTS, BOUNDS)
    @settings(max_examples=300, deadline=None)
    def test_capped_at_bound_plus_one(self, a, b, k):
        assert levenshtein(a, b, max_distance=k) == min(levenshtein(a, b),
                                                        k + 1)

    @given(TEXTS, TEXTS, BOUNDS)
    @settings(max_examples=100, deadline=None)
    def test_symmetry(self, a, b, k):
        assert (levenshtein(a, b, max_distance=k)
                == levenshtein(b, a, max_distance=k))

    def test_known_values(self):
        assert levenshtein("kitten", "sitting", max_distance=3) == 3
        assert levenshtein("kitten", "sitting", max_distance=2) == 3
        assert levenshtein("", "abc", max_distance=1) == 2
        assert levenshtein("", "", max_distance=0) == 0
        assert levenshtein("ab", "ba", max_distance=0) == 1

    def test_negative_bound_raises(self):
        with pytest.raises(ValueError):
            levenshtein("a", "b", max_distance=-1)


class TestNormalizedSimilarity:
    def test_identical_is_one(self):
        assert normalized_edit_similarity("best actor 2011", "best actor 2011") == 1.0

    def test_empty_pair_is_one(self):
        assert normalized_edit_similarity("", "") == 1.0

    def test_paper_example_close(self):
        # "best actress of year 2011" vs column "best actor 2011"
        assert normalized_edit_similarity(
            "best actress of year 2011", "best actor 2011") > 0.55

    @given(WORDS, WORDS)
    @settings(max_examples=60, deadline=None)
    def test_in_unit_interval(self, a, b):
        sim = normalized_edit_similarity(a, b)
        assert 0.0 <= sim <= 1.0


class TestStem:
    @pytest.mark.parametrize("a,b", [
        ("candidates", "candidate"),
        ("golfers", "golfer"),
        ("directed", "direct"),
        ("cities", "city"),
        ("scored", "score"),
        ("winning", "winn"),
    ])
    def test_shared_stems(self, a, b):
        assert stem(a) == stem(b) or stem(a) == stem(stem(b))

    def test_short_words_untouched(self):
        assert stem("was") == "was"
        assert stem("is") == "is"

    def test_idempotent_enough(self):
        for word in ["candidates", "playing", "golfer", "films"]:
            assert stem(stem(word)) == stem(stem(stem(word)))


class TestSynonymGroups:
    def test_group_membership(self):
        assert synonym_group_of("golfer") == synonym_group_of("player")
        assert synonym_group_of("movie") == synonym_group_of("film")

    def test_morphological_fallback(self):
        assert synonym_group_of("golfers") == synonym_group_of("golfer")

    def test_unknown_word(self):
        assert synonym_group_of("zzzxqy") is None


class TestWordEmbeddings:
    def setup_method(self):
        self.emb = WordEmbeddings(dim=32, seed=0)

    def test_deterministic(self):
        other = WordEmbeddings(dim=32, seed=0)
        np.testing.assert_array_equal(self.emb.vector("actor"), other.vector("actor"))

    def test_different_seed_different_space(self):
        other = WordEmbeddings(dim=32, seed=1)
        assert not np.allclose(self.emb.vector("actor"), other.vector("actor"))

    def test_unit_norm(self):
        assert np.linalg.norm(self.emb.vector("anything")) == pytest.approx(1.0)

    def test_synonyms_close_strangers_far(self):
        syn = self.emb.similarity("golfer", "athlete")
        far = self.emb.similarity("golfer", "calendar")
        assert syn > 0.8
        assert far < 0.5
        assert syn > far

    def test_morphological_variants_close(self):
        assert self.emb.similarity("candidates", "candidate") > 0.9

    def test_semantic_distance_ordering(self):
        assert self.emb.distance("film", "movie") < self.emb.distance("film", "salary")

    def test_phrase_vector_average(self):
        v = self.emb.phrase_vector("people live")
        manual = (self.emb.vector("people") + self.emb.vector("live")) / 2
        np.testing.assert_allclose(v, manual)

    def test_phrase_similarity_paraphrase(self):
        # "people live" relates to "population" via the synonym lexicon.
        assert (self.emb.phrase_similarity("people live", "population")
                > self.emb.phrase_similarity("people live", "film director"))

    def test_empty_phrase(self):
        assert self.emb.phrase_similarity("", "population") == 0.0
        np.testing.assert_array_equal(self.emb.phrase_vector(""), np.zeros(32))

    def test_matrix_shape(self):
        assert self.emb.matrix(["a", "b", "c"]).shape == (3, 32)
        assert self.emb.matrix([]).shape == (0, 32)

    def test_bad_params_raise(self):
        with pytest.raises(ValueError):
            WordEmbeddings(dim=1)
        with pytest.raises(ValueError):
            WordEmbeddings(group_weight=1.0)

    def test_cache_returns_same_object(self):
        a = self.emb.vector("actor")
        b = self.emb.vector("actor")
        assert a is b
