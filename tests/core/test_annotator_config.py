"""Tests for annotator configuration switches and detection internals."""

import numpy as np
import pytest

from repro.core.annotator import Annotator, AnnotatorConfig, _try_float
from repro.core.mention import ClassifierConfig
from repro.data import generate_wikisql_style
from repro.sqlengine import Column, DataType, Table
from repro.text import KnowledgeBase, WordEmbeddings

EMB = WordEmbeddings(dim=32, seed=0)


@pytest.fixture(scope="module")
def trained():
    ds = generate_wikisql_style(seed=41, train_size=60, dev_size=10,
                                test_size=0)
    annotator = Annotator(EMB, classifier_config=ClassifierConfig(word_dim=32))
    annotator.fit(ds.train, classifier_epochs=1, value_epochs=15)
    return annotator, ds


def census_table():
    return Table("census", [Column("county"), Column("name"),
                            Column("population", DataType.REAL)],
                 [("mayo", "carrowteige", 356),
                  ("galway", "aran", 1225)])


def numeric_ranges(table):
    """The numeric value ranges of a table's cached encoding."""
    encoding, _status = Annotator(EMB).schema_encoding(table)
    return encoding.numeric_ranges


class TestNumericRanges:
    def test_detects_numeric_columns(self):
        ranges = numeric_ranges(census_table())
        assert "population" in ranges
        assert "county" not in ranges

    def test_margin_extends_range(self):
        ranges = numeric_ranges(census_table())
        lo, hi = ranges["population"]
        assert lo < 356 and hi > 1225

    def test_numeric_strings_count(self):
        table = Table("t", [Column("v")], [("10",), ("20",)])
        assert "v" in numeric_ranges(table)

    def test_mixed_column_not_numeric(self):
        table = Table("t", [Column("v")], [("10",), ("abc",)])
        assert numeric_ranges(table) == {}

    def test_try_float(self):
        assert _try_float("3.5") == 3.5
        assert _try_float("mayo") is None


class TestValueDetection:
    def test_in_range_number_binds_to_numeric_column(self, trained):
        annotator, _ = trained
        tokens = "which county has population 356 ?".split()
        values = annotator._detect_values(tokens, census_table())
        numeric = [v for v in values if tokens[v.start:v.end] == ["356"]]
        assert numeric
        assert "population" in numeric[0].columns

    def test_out_of_range_number_not_bound(self, trained):
        annotator, _ = trained
        tokens = "which county has population 9999999 ?".split()
        values = annotator._detect_values(tokens, census_table())
        for candidate in values:
            if tokens[candidate.start:candidate.end] == ["9999999"]:
                assert "population" not in candidate.columns

    def test_exact_cell_match_detected(self, trained):
        annotator, _ = trained
        tokens = "what is the population of mayo ?".split()
        values = annotator._detect_values(tokens, census_table())
        surfaces = {" ".join(tokens[v.start:v.end]) for v in values}
        assert "mayo" in surfaces

    def test_value_spans_never_overlap(self, trained):
        annotator, ds = trained
        for example in ds.dev:
            values = annotator._detect_values(example.question_tokens,
                                              example.table)
            taken = set()
            for v in values:
                span = set(range(v.start, v.end))
                assert not span & taken
                taken |= span


class TestConfigSwitches:
    def test_disable_value_classifier(self, trained):
        annotator, ds = trained
        original = annotator.config
        annotator.config = AnnotatorConfig(use_value_classifier=False)
        try:
            example = ds.dev[0]
            annotation = annotator.annotate(example.question_tokens,
                                            example.table)
            assert annotation is not None  # pipeline still runs
        finally:
            annotator.config = original

    def test_disable_column_classifier(self, trained):
        annotator, ds = trained
        original = annotator.config
        annotator.config = AnnotatorConfig(use_column_classifier=False)
        try:
            example = ds.dev[0]
            annotation = annotator.annotate(example.question_tokens,
                                            example.table)
            # Only matcher-based mentions remain; all have explicit spans
            # or are implicit via values.
            assert annotation is not None
        finally:
            annotator.config = original

    def test_contrastive_influence_path(self, trained):
        annotator, ds = trained
        original = annotator.config
        annotator.config = AnnotatorConfig(use_contrastive_influence=True)
        try:
            example = ds.dev[0]
            annotation = annotator.annotate(example.question_tokens,
                                            example.table)
            assert annotation is not None
        finally:
            annotator.config = original

    def test_context_free_mode_skips_classifiers(self, trained):
        # mode="context_free" must behave like a trained annotator with
        # both classifiers switched off: only matcher mentions and exact
        # cell matches survive.  It is the serving layer's degraded rung.
        annotator, ds = trained
        original = annotator.config
        annotator.config = AnnotatorConfig(use_column_classifier=False,
                                           use_value_classifier=False)
        try:
            for example in ds.dev[:5]:
                reference = annotator.annotate(example.question_tokens,
                                               example.table)
                annotator.config = original
                degraded = annotator.annotate(example.question_tokens,
                                              example.table,
                                              mode="context_free")
                annotator.config = AnnotatorConfig(
                    use_column_classifier=False,
                    use_value_classifier=False)
                assert degraded.annotated_tokens() \
                    == reference.annotated_tokens()
        finally:
            annotator.config = original

    def test_exact_cell_matches_survive_context_free(self, trained):
        annotator, _ = trained
        tokens = "which county has name carrowteige ?".split()
        annotation = annotator.annotate(tokens, census_table(),
                                        mode="context_free")
        assert any(v.surface == "carrowteige" for v in annotation.values)

    def test_unknown_mode_rejected(self, trained):
        annotator, _ = trained
        from repro.errors import ModelError
        with pytest.raises(ModelError):
            annotator.annotate(["x"], census_table(), mode="turbo")

    def test_knowledge_base_adds_candidates(self):
        kb = KnowledgeBase()
        kb.add("population", mention_phrases=["how many people live in"])
        annotator = Annotator(EMB, knowledge=kb)
        tokens = "how many people live in mayo ?".split()
        # The matcher pass and span dedup of the column stage; the
        # classifier is untrained, so it scores nothing.
        scored, needed = annotator.column_scoring_plan(
            tokens, census_table(), set())
        assert needed == []
        spans = annotator.locate_columns(set(), scored, {}, {})
        assert "population" in spans
        start, end = spans["population"]
        assert (start, end) == (0, 5)


class TestSymbolAllocation:
    def test_indices_follow_first_reference_order(self, trained):
        annotator, _ = trained
        tokens = "what is the population of mayo ?".split()
        annotation = annotator.annotate(tokens, census_table())
        positions = []
        for ann in annotation.columns:
            if ann.span is not None:
                positions.append((ann.index, ann.span[0]))
        # Higher indices never start before lower indices.
        for (i1, p1), (i2, p2) in zip(positions, positions[1:]):
            if i1 < i2:
                assert p1 <= p2
