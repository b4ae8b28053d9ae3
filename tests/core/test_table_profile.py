"""Differentials for the per-table profile inside :class:`SchemaEncoding`.

The profile parses the cells in one pass — numeric ranges and the
first-token cell index — and computes a column's value statistics
``s_c`` when they are first read.  Both must agree exactly with the
per-cell reference implementations they replaced:
:func:`repro.text.column_statistics` and the oracles in
``tests/oracles.py``.  A recording wrapper around the embeddings pins
which cells get embedded: none at build time, one column's on its first
read, and never a numeric column's during annotation.
"""

from types import SimpleNamespace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import build_schema_encoding
from repro.core.annotator import Annotator
from repro.core.mention import ColumnMatcher
from repro.sqlengine import Column, DataType, Table
from repro.text import WordEmbeddings, column_statistics, tokenize
from tests import oracles

EMB = WordEmbeddings(dim=24, seed=3)
ANNOTATOR = Annotator(EMB)
MATCHER = ColumnMatcher(EMB)

WORDS = ["mayo", "galway", "aran", "north", "west", "de", "la", "film"]
#: Cells that tokenize to nothing.
BLANKS = ["", "   ", "?!", "--"]

WORD_CELLS = st.lists(st.sampled_from(WORDS), min_size=1,
                      max_size=6).map(" ".join)
NUMBER_CELLS = st.one_of(
    st.integers(-500, 500),
    st.floats(-1e4, 1e4, allow_nan=False, allow_infinity=False),
    st.integers(0, 99).map(str))
CELLS = st.one_of(WORD_CELLS, NUMBER_CELLS, st.sampled_from(BLANKS))


@st.composite
def tables(draw):
    n_cols = draw(st.integers(1, 4))
    names = draw(st.lists(st.sampled_from(WORDS), min_size=n_cols,
                          max_size=n_cols, unique=True))
    # Some columns draw only numbers, so numeric ranges are exercised;
    # a small pool per column makes repeated cells common.
    pools = [draw(st.lists(draw(st.sampled_from([CELLS, NUMBER_CELLS])),
                           min_size=1, max_size=4))
             for _ in range(n_cols)]
    n_rows = draw(st.integers(0, 12))
    rows = [tuple(draw(st.sampled_from(pool)) for pool in pools)
            for _ in range(n_rows)]
    return Table("t", [Column(name, DataType.TEXT) for name in names], rows)


class RecordingEmbeddings:
    """The word embeddings, recording every word ``vector`` is asked for."""

    def __init__(self, inner):
        self.inner = inner
        self.dim = inner.dim
        self.words: list[str] = []

    def vector(self, word):
        self.words.append(word)
        return self.inner.vector(word)


def cell_words(table, name):
    return {token for cell in table.column_values(name)
            for token in tokenize(str(cell))}


def question(draw, table):
    """A question mixing pool words with (pieces of) the table's cells."""
    vocabulary = list(WORDS) + [token for row in table.rows
                                for cell in row
                                for token in tokenize(str(cell))]
    return draw(st.lists(st.sampled_from(vocabulary), max_size=12))


class TestProfileMatchesOracles:
    @given(tables())
    @settings(max_examples=150, deadline=None)
    def test_stats_bit_equal_to_column_statistics(self, table):
        encoding = build_schema_encoding(ANNOTATOR, table)
        assert set(encoding.stats) == {c.lower() for c in table.column_names}
        for name in table.column_names:
            expected = column_statistics(table.column_values(name),
                                         EMB.vector, EMB.dim)
            assert np.array_equal(encoding.stats[name.lower()], expected)

    @given(tables())
    @settings(max_examples=150, deadline=None)
    def test_numeric_ranges_equal_reference(self, table):
        encoding = build_schema_encoding(ANNOTATOR, table)
        assert encoding.numeric_ranges == oracles.numeric_ranges(table)

    @given(tables(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_cell_candidates_equal_full_scan(self, table, data):
        encoding = build_schema_encoding(ANNOTATOR, table)
        tokens = question(data.draw, table)
        for name in table.column_names:
            assert MATCHER.find_cell_values(
                tokens, name, encoding.cells[name]) == \
                oracles.find_cell_values(tokens, name,
                                         table.column_values(name))


class TestProfileCases:
    def test_repeated_multi_token_cells_match_in_cell_order(self):
        table = Table("t", [Column("who")],
                      [("la west",), ("north",), ("la west",), ("?",),
                       ("west",)])
        encoding = build_schema_encoding(ANNOTATOR, table)
        tokens = "west of la west and north".split()
        found = MATCHER.find_cell_values(tokens, "who", encoding.cells["who"])
        assert [(c.start, c.end) for c in found] == [(2, 4), (5, 6),
                                                     (0, 1), (3, 4)]
        assert found == oracles.find_cell_values(
            tokens, "who", table.column_values("who"))

    def test_empty_table_profile(self):
        table = Table("t", [Column("a"), Column("b", DataType.REAL)], [])
        encoding = build_schema_encoding(ANNOTATOR, table)
        assert np.array_equal(encoding.stats["a"], np.zeros(EMB.dim))
        assert encoding.numeric_ranges == {}
        assert encoding.cells == {"a": {}, "b": {}}

    def test_context_free_build_never_encodes_columns(self):
        """The column classifier runs only when ``columns`` is read."""
        calls = []

        class Recorder:
            _trained = True

            def encode_columns(self, columns):
                calls.append(columns)
                return "encoded"

        annotator = Annotator(EMB)
        annotator.column_classifier = Recorder()
        table = Table("t", [Column("film name")], [("solaris",)])
        encoding = build_schema_encoding(annotator, table)
        assert calls == []
        assert encoding.columns == "encoded"
        assert encoding.columns == "encoded"
        assert calls == [[["film", "name"]]]


class TestStatsOnFirstRead:
    @staticmethod
    def build(table):
        embeddings = RecordingEmbeddings(EMB)
        annotator = SimpleNamespace(column_classifier=None,
                                    embeddings=embeddings)
        return build_schema_encoding(annotator, table), embeddings

    @given(tables())
    @settings(max_examples=100, deadline=None)
    def test_build_embeds_no_cell_word(self, table):
        header_words = {token for name in table.column_names
                        for token in tokenize(name)}
        _encoding, embeddings = self.build(table)
        cells = set().union(*(cell_words(table, name)
                              for name in table.column_names))
        assert not (set(embeddings.words) & cells) - header_words

    @given(tables(), st.randoms(use_true_random=False))
    @settings(max_examples=100, deadline=None)
    def test_reading_a_column_embeds_only_its_cells(self, table, random):
        encoding, embeddings = self.build(table)
        names = list(table.column_names)
        random.shuffle(names)
        for name in names:
            embeddings.words.clear()
            first = encoding.stats[name.lower()]
            assert set(embeddings.words) == cell_words(table, name)
            embeddings.words.clear()
            assert encoding.stats[name.lower()] is first
            assert embeddings.words == []

    def test_annotate_never_embeds_numeric_cells(self, nlidb, monkeypatch):
        # A fresh table, so the schema cache misses; the question holds
        # text spans, so the value classifier reads the text column's s_c.
        table = Table("screenings", [Column("feature"),
                                     Column("season", DataType.REAL)],
                      [("zerkalo", 1974), ("nostalghia", 1983),
                       ("offret", 1986)])
        annotator = nlidb.annotator
        words = []
        original = annotator.embeddings.vector

        def recording(word):
            words.append(word)
            return original(word)

        monkeypatch.setattr(annotator.embeddings, "vector", recording)
        nlidb.annotate("which feature was shot near the old monastery",
                       table)
        assert set(words) & cell_words(table, "feature")
        assert not set(words) & cell_words(table, "season")
