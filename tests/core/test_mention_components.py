"""Tests for matcher, value classifier, resolution, and adversarial
mechanics (fast paths; trained-model integration lives in
test_pipeline.py)."""

import numpy as np
import pytest

from repro.core.mention import (
    ColumnMatcher,
    ColumnMentionClassifier,
    InfluenceProfile,
    MentionCandidate,
    ValueCandidate,
    ValueDetectionClassifier,
    candidate_spans,
    cell_index,
    compute_influence,
    contrastive_profile,
    locate_mention,
    resolve_mentions,
)
from repro.errors import ModelError
from repro.text import KnowledgeBase, WordEmbeddings, tokenize
from tests import oracles

EMB = WordEmbeddings(dim=32, seed=0)


def influence_of(classifier, question, column, **kwargs):
    """A one-pair batch of :func:`compute_influence`."""
    return compute_influence(classifier, [(question, column)], **kwargs)[0]


def index_cells(cells):
    return cell_index(tokenize(str(cell)) for cell in cells)


def best_of(matcher, tokens, column):
    """The matcher's candidate for one column."""
    return matcher.best(tokens, [column])[0]


class TestColumnMatcher:
    def setup_method(self):
        self.matcher = ColumnMatcher(EMB)

    def test_exact_match(self):
        tokens = tokenize("what is the population of mayo ?")
        best = best_of(self.matcher, tokens, "population")
        assert best is not None
        assert (best.start, best.end) == (3, 4)
        assert best.method == "exact"

    def test_multiword_exact_match(self):
        tokens = tokenize("the english name of the place")
        best = best_of(self.matcher, tokens, "english name")
        assert (best.start, best.end) == (1, 3)

    def test_semantic_synonym_match(self):
        tokens = tokenize("which movie did he like ?")
        best = best_of(self.matcher, tokens, "film")
        assert best is not None
        assert tokens[best.start:best.end] == ["movie"]
        assert best.method == "semantic"

    def test_edit_distance_match(self):
        # "best actress of year 2011" vs column "best actor 2011" spans
        tokens = tokenize("who is the best actres of 2011 ?")
        found = oracles.find_mentions(self.matcher, tokens,
                                      "best actres of 2011")
        assert found  # exact; now try a typo'd column
        found = oracles.find_mentions(self.matcher, tokens,
                                      "best actress of 2011")
        assert any(c.method in ("edit", "exact") for c in found)

    def test_no_match_returns_none(self):
        tokens = tokenize("completely unrelated words here")
        assert best_of(self.matcher, tokens, "launch date") is None

    def test_knowledge_base_phrases(self):
        kb = KnowledgeBase()
        kb.add("population", mention_phrases=["how many people live in"])
        matcher = ColumnMatcher(EMB, knowledge=kb)
        tokens = tokenize("how many people live in mayo ?")
        best = best_of(matcher, tokens, "population")
        assert best is not None
        assert best.method in ("knowledge", "exact")
        assert (best.start, best.end) == (0, 5)

    def test_knowledge_describing_expressions(self):
        kb = KnowledgeBase()
        kb.add("price", describing_expressions=["level off"])
        matcher = ColumnMatcher(EMB, knowledge=kb)
        tokens = tokenize("when did it level off ?")
        best = best_of(matcher, tokens, "price")
        assert best is not None
        assert tokens[best.start:best.end] == ["level", "off"]

    def test_blank_knowledge_phrase_claims_no_empty_span(self):
        kb = KnowledgeBase()
        kb.add("price", mention_phrases=["  ", "cost"])
        matcher = ColumnMatcher(EMB, knowledge=kb)
        best = best_of(matcher, ["what", "is", "the", "cost", "?"], "price")
        assert best == MentionCandidate("price", 3, 4, 0.95, "knowledge")

    def test_never_yields_empty_span(self):
        # Bypasses ``KnowledgeBase.add``: the matcher itself must skip
        # a phrase with no tokens.
        kb = KnowledgeBase()
        kb.add("price")
        kb.get("price").mention_phrases.append("")
        matcher = ColumnMatcher(EMB, knowledge=kb)
        assert best_of(matcher, ["what", "is", "it", "?"], "price") is None

    def test_one_call_covers_every_column(self):
        tokens = tokenize("which movie has the population of mayo ?")
        columns = ["film", "population", "launch date"]
        assert self.matcher.best(tokens, columns) == [
            best_of(self.matcher, tokens, column) for column in columns]
        assert self.matcher.best(tokens, []) == []

    def test_candidates_sorted_best_first(self):
        tokens = tokenize("the population of the county")
        found = oracles.find_mentions(self.matcher, tokens, "population")
        assert found[0].method == "exact"

    def test_find_cell_values(self):
        tokens = tokenize("films by jerzy antczak in 2002")
        cands = self.matcher.find_cell_values(
            tokens, "director",
            index_cells(["jerzy antczak", "nana djordjadze"]))
        assert len(cands) == 1
        assert (cands[0].start, cands[0].end) == (2, 4)

    def test_find_cell_values_numeric(self):
        tokens = tokenize("which one has 2002 ?")
        cands = self.matcher.find_cell_values(tokens, "year",
                                              index_cells([2002, 1999]))
        assert len(cands) == 1


class TestCandidateSpans:
    def test_excludes_stop_words(self):
        spans = candidate_spans(tokenize("the mayo county"), max_length=3)
        assert (0, 1) not in spans          # "the"
        assert (1, 2) in spans and (1, 3) in spans

    def test_excludes_punctuation(self):
        spans = candidate_spans(tokenize("mayo ?"), max_length=2)
        assert spans == [(0, 1)]

    def test_max_length_respected(self):
        spans = candidate_spans(["a1", "b2", "c3", "d4"], max_length=2)
        assert all(e - s <= 2 for s, e in spans)

    def test_empty(self):
        assert candidate_spans([], 3) == []


class TestValueClassifier:
    def test_learns_person_vs_number_columns(self):
        clf = ValueDetectionClassifier(EMB, hidden=16, seed=0)
        rng = np.random.default_rng(0)
        people = ["john smith", "mary johnson", "piotr adamczyk",
                  "anna larsen", "luca rossi", "peter novak"]
        numbers = [str(n) for n in rng.integers(100, 9000, size=6)]
        person_stats = np.mean([clf.span_stats(tokenize(p)) for p in people],
                               axis=0)
        number_stats = np.mean([clf.span_stats(tokenize(n)) for n in numbers],
                               axis=0)
        rows = []
        for p in people:
            rows.append((clf.span_stats(tokenize(p)), person_stats, 1.0))
            rows.append((clf.span_stats(tokenize(p)), number_stats, 0.0))
        for n in numbers:
            rows.append((clf.span_stats(tokenize(n)), number_stats, 1.0))
            rows.append((clf.span_stats(tokenize(n)), person_stats, 0.0))
        clf.fit(rows, epochs=60)
        # Counterfactual person name (never in training).
        new_person = clf.span_stats(tokenize("greta fischer"))
        assert clf.predict_proba(new_person, person_stats) > \
            clf.predict_proba(new_person, number_stats)

    def test_feature_shape_validation(self):
        clf = ValueDetectionClassifier(EMB)
        with pytest.raises(ModelError):
            clf.features(np.zeros(8), np.zeros(32))

    def test_fit_requires_rows(self):
        with pytest.raises(ModelError):
            ValueDetectionClassifier(EMB).fit([])

    def test_predict_in_unit_interval(self):
        clf = ValueDetectionClassifier(EMB)
        p = clf.predict_proba(np.zeros(32), np.ones(32))
        assert 0.0 < p < 1.0


class TestResolution:
    def test_paper_example(self):
        """Jerzy→director, Piotr→actor by dependency closeness."""
        tokens = tokenize("which film directed by jerzy antczak did "
                          "piotr adamczyk star in ?")
        column_mentions = {"film name": (1, 2), "director": (2, 4),
                           "actor": (9, 10)}
        values = [
            ValueCandidate(4, 6, ("director", "actor")),
            ValueCandidate(7, 9, ("director", "actor")),
        ]
        resolved = resolve_mentions(tokens, column_mentions, values)
        assignment = {(p.value_start, p.value_end): p.column for p in resolved}
        assert assignment[(4, 6)] == "director"
        assert assignment[(7, 9)] == "actor"

    def test_each_column_gets_at_most_one_value(self):
        tokens = tokenize("a b c d e")
        column_mentions = {"x": (0, 1)}
        values = [ValueCandidate(2, 3, ("x",)), ValueCandidate(4, 5, ("x",))]
        resolved = resolve_mentions(tokens, column_mentions, values)
        assert len(resolved) == 1

    def test_overlapping_spans_not_paired(self):
        tokens = tokenize("alpha beta gamma")
        column_mentions = {"x": (0, 2)}
        values = [ValueCandidate(1, 2, ("x",))]  # overlaps the column span
        assert resolve_mentions(tokens, column_mentions, values) == []

    def test_implicit_mention_anchoring(self):
        tokens = tokenize("how many people live in mayo ?")
        column_mentions = {"county": (5, 5)}  # implicit at position 5
        values = [ValueCandidate(5, 6, ("county",))]
        resolved = resolve_mentions(tokens, column_mentions, values)
        assert resolved == []  # anchor overlaps its own value span

    def test_scores_break_ties(self):
        tokens = tokenize("x1 v v x2")
        column_mentions = {"a": (0, 1), "b": (3, 4)}
        values = [ValueCandidate(1, 3, ("a", "b"), (0.2, 0.9))]
        resolved = resolve_mentions(tokens, column_mentions, values)
        assert len(resolved) == 1

    def test_empty_inputs(self):
        assert resolve_mentions(["x"], {}, []) == []


class TestAdversarialMechanics:
    def setup_method(self):
        self.clf = ColumnMentionClassifier(EMB)
        self.tokens = tokenize("which film did he star in ?")

    def test_influence_shapes(self):
        profile = influence_of(self.clf, self.tokens, ["film"])
        assert len(profile.tokens) == len(self.tokens)
        assert profile.word_influence.shape == (len(self.tokens),)
        assert profile.char_influence.shape == (len(self.tokens),)
        assert (profile.word_influence >= 0).all()

    def test_alpha_beta_weighting(self):
        word_only = influence_of(self.clf, self.tokens, ["film"],
                                      alpha=1.0, beta=0.0)
        np.testing.assert_allclose(word_only.combined,
                                   word_only.word_influence)
        char_only = influence_of(self.clf, self.tokens, ["film"],
                                      alpha=0.0, beta=1.0)
        np.testing.assert_allclose(char_only.combined,
                                   char_only.char_influence)

    @pytest.mark.parametrize("norm", ["l1", "l2", "linf"])
    def test_norms(self, norm):
        profile = influence_of(self.clf, self.tokens, ["film"],
                                    norm=norm)
        assert np.isfinite(profile.combined).all()

    def test_l1_dominates_linf(self):
        l1 = influence_of(self.clf, self.tokens, ["film"], norm="l1")
        linf = influence_of(self.clf, self.tokens, ["film"], norm="linf")
        assert (l1.combined >= linf.combined - 1e-12).all()

    def test_unknown_norm_raises(self):
        with pytest.raises(ModelError):
            influence_of(self.clf, self.tokens, ["film"], norm="l3")

    def test_locate_returns_valid_span(self):
        profile = influence_of(self.clf, self.tokens, ["film"])
        start, end = locate_mention(profile, max_length=3)
        assert 0 <= start < end <= len(self.tokens)
        assert end - start <= 3

    def test_locate_skips_stop_words_and_punct(self):
        profile = InfluenceProfile(
            ["the", "film", "?"], np.array([5.0, 1.0, 9.0]),
            np.zeros(3), np.array([5.0, 1.0, 9.0]))
        start, end = locate_mention(profile, max_length=1)
        assert (start, end) == (1, 2)

    def test_locate_respects_blocked(self):
        profile = InfluenceProfile(
            ["alpha", "beta", "gamma"], np.array([1.0, 9.0, 2.0]),
            np.zeros(3), np.array([1.0, 9.0, 2.0]))
        start, end = locate_mention(profile, max_length=1, blocked={1})
        assert (start, end) == (2, 3)

    def test_locate_empty_raises(self):
        profile = InfluenceProfile([], np.zeros(0), np.zeros(0), np.zeros(0))
        with pytest.raises(ModelError):
            locate_mention(profile)

    def test_top_token(self):
        profile = InfluenceProfile(["a1", "b2"], np.zeros(2), np.zeros(2),
                                   np.array([0.1, 0.9]))
        assert profile.top_token() == "b2"

    def test_contrastive_profile(self):
        base = InfluenceProfile(["a", "b"], np.zeros(2), np.zeros(2),
                                np.array([2.0, 2.0]))
        other = InfluenceProfile(["a", "b"], np.zeros(2), np.zeros(2),
                                 np.array([2.0, 0.0]))
        out = contrastive_profile(base, [other])
        np.testing.assert_allclose(out.combined, [0.0, 2.0])

    def test_contrastive_no_background_identity(self):
        base = InfluenceProfile(["a"], np.zeros(1), np.zeros(1),
                                np.array([1.0]))
        assert contrastive_profile(base, []) is base


class TestClassifierMechanics:
    def test_forward_validates_inputs(self):
        clf = ColumnMentionClassifier(EMB)
        with pytest.raises(ModelError):
            clf([([], ["col"])])
        with pytest.raises(ModelError):
            clf([(["word"], [])])
        with pytest.raises(ModelError):
            clf([])

    def test_embedding_dim_mismatch_raises(self):
        with pytest.raises(ModelError):
            ColumnMentionClassifier(WordEmbeddings(dim=16))

    def test_fit_requires_pairs(self):
        with pytest.raises(ModelError):
            ColumnMentionClassifier(EMB).fit([])

    def test_predict_proba_in_unit_interval(self):
        clf = ColumnMentionClassifier(EMB)
        p = clf.predict_proba(tokenize("a question here"), ["column"])
        assert 0.0 < p < 1.0

    def test_long_columns_truncated(self):
        clf = ColumnMentionClassifier(EMB)
        logits = clf([(tokenize("a question"),
                        ["a", "b", "c", "d", "e", "f"])])
        assert logits.shape == (1,)

    def test_capture_leaves_have_grads_after_backward(self):
        # Every question word gets a word and a char gradient from the
        # numpy pass, and it leaves the parameters' .grad alone.
        clf = ColumnMentionClassifier(EMB)
        question = tokenize("some words here")
        _logits, word, char = clf.embedding_gradients([(question, ["col"])])
        assert word.shape == (1, len(question), clf.config.word_dim)
        assert char.shape == (1, len(question), clf.config.char_out)
        assert (np.abs(word).sum(axis=2) > 0).all()
        assert (np.abs(char).sum(axis=2) > 0).all()
        assert all(param.grad is None for param in clf.parameters())
        profile = influence_of(clf, question, ["col"])
        assert profile.combined.sum() > 0
