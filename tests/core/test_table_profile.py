"""Differentials for the per-table profile inside :class:`SchemaEncoding`.

The profile is built in one pass over the cells — value statistics
``s_c``, numeric ranges and the first-token cell index — and must agree
exactly with the per-cell reference implementations it replaced:
:func:`repro.text.column_statistics` and the oracles in
``tests/oracles.py``.
"""

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
