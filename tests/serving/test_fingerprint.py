"""Property-based tests for the table content fingerprint.

The serving cache, cluster routing and the annotator's per-table
cache all key on :func:`repro.sqlengine.table_fingerprint`; these
properties are what make that keying sound: content-equal tables
collide, any content edit separates, and the digest is process-stable
(no dependence on the interpreter's salted ``hash()``).  A golden digest
and a differential against the field-at-a-time reference
(``tests/oracles.py``) pin that the digest never changes.
"""

import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sqlengine import Column, DataType, Table, table_fingerprint
from tests import oracles

WORDS = st.sampled_from(["alpha", "beta", "gamma", "delta", "omega",
                         "kilo", "mega", "turbo"])
CELLS = st.one_of(WORDS, st.integers(-50, 50),
                  st.floats(-10, 10, allow_nan=False))
DTYPES = st.sampled_from([DataType.TEXT, DataType.REAL])


@st.composite
def tables(draw):
    n_cols = draw(st.integers(1, 4))
    names = draw(st.lists(WORDS, min_size=n_cols, max_size=n_cols,
                          unique=True))
    columns = [Column(name, draw(DTYPES)) for name in names]
    n_rows = draw(st.integers(0, 5))
    rows = [tuple(draw(CELLS) for _ in range(n_cols))
            for _ in range(n_rows)]
    return Table(draw(WORDS), columns, rows)


def _rebuild(table: Table, name: str | None = None) -> Table:
    """A fresh, row-order-preserving deep copy of a table."""
    return Table(name if name is not None else table.name,
                 [Column(c.name, c.dtype) for c in table.columns],
                 [tuple(row) for row in table.rows])


class TestEquality:
    @given(tables())
    @settings(max_examples=60, deadline=None)
    def test_rebuilt_copy_hashes_equal(self, table):
        assert table_fingerprint(_rebuild(table)) == table_fingerprint(table)

    @given(tables())
    @settings(max_examples=60, deadline=None)
    def test_table_name_is_not_content(self, table):
        renamed = _rebuild(table, name=table.name + "_replica")
        assert table_fingerprint(renamed) == table_fingerprint(table)

    @given(tables())
    @settings(max_examples=60, deadline=None)
    def test_fingerprint_is_deterministic(self, table):
        assert table_fingerprint(table) == table_fingerprint(table)


class TestSeparation:
    @given(tables(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_renaming_any_column_changes_hash(self, table, data):
        i = data.draw(st.integers(0, len(table.columns) - 1))
        mutated = _rebuild(table)
        mutated.columns[i] = Column(table.columns[i].name + "x",
                                    table.columns[i].dtype)
        assert table_fingerprint(mutated) != table_fingerprint(table)

    @given(tables(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_changing_any_column_type_changes_hash(self, table, data):
        i = data.draw(st.integers(0, len(table.columns) - 1))
        old = table.columns[i]
        flipped = (DataType.REAL if old.dtype is DataType.TEXT
                   else DataType.TEXT)
        mutated = _rebuild(table)
        mutated.columns[i] = Column(old.name, flipped)
        assert table_fingerprint(mutated) != table_fingerprint(table)

    @given(tables(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_changing_any_cell_changes_hash(self, table, data):
        if not table.rows:
            return
        r = data.draw(st.integers(0, len(table.rows) - 1))
        c = data.draw(st.integers(0, len(table.columns) - 1))
        mutated = _rebuild(table)
        row = list(mutated.rows[r])
        row[c] = str(row[c]) + "_edited"
        mutated.rows[r] = tuple(row)
        assert table_fingerprint(mutated) != table_fingerprint(table)

    @given(tables())
    @settings(max_examples=60, deadline=None)
    def test_appending_a_row_changes_hash(self, table):
        mutated = _rebuild(table)
        mutated.insert(tuple("pad" for _ in table.columns))
        assert table_fingerprint(mutated) != table_fingerprint(table)

    def test_cell_type_is_content(self):
        as_int = Table("t", [Column("a")], [(1,)])
        as_str = Table("t", [Column("a")], [("1",)])
        assert table_fingerprint(as_int) != table_fingerprint(as_str)

    def test_row_order_is_content(self):
        forward = Table("t", [Column("a")], [("x",), ("y",)])
        backward = Table("t", [Column("a")], [("y",), ("x",)])
        assert table_fingerprint(forward) != table_fingerprint(backward)


_SNIPPET = """
import sys
sys.path.insert(0, {src!r})
from repro.sqlengine import Column, DataType, Table, table_fingerprint
from tests import oracles
table = Table("films", [Column("film"), Column("year", DataType.REAL)],
              [("solaris", 1972), ("stalker", 1979)])
print(table_fingerprint(table))
"""


class TestProcessStability:
    def test_stable_across_interpreter_hash_seeds(self):
        """The digest must not inherit per-process hash() salting."""
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        snippet = _SNIPPET.format(src=os.path.abspath(src))
        digests = []
        for seed in ("1", "271828"):
            env = dict(os.environ, PYTHONHASHSEED=seed)
            result = subprocess.run([sys.executable, "-c", snippet],
                                    capture_output=True, text=True, env=env,
                                    check=True)
            digests.append(result.stdout.strip())
        table = Table("films", [Column("film"), Column("year", DataType.REAL)],
                      [("solaris", 1972), ("stalker", 1979)])
        assert digests[0] == digests[1] == table_fingerprint(table)


#: Every cell type the digest tags, plus non-ASCII and empty strings.
GOLDEN_TABLE = Table(
    "golden",
    [Column("name"), Column("score", DataType.REAL), Column("flag"),
     Column("note")],
    [("Łódź café", 3, True, None),
     ("", 2.5, False, "naïve — 東京"),
     ("x y", -0.0, 0, ""),
     ("1", 1, 1.0, "True")])
GOLDEN_DIGEST = \
    "0aea3f4fbd25fc29f65bfce7b8757f730c8a946a12fff00956b08ecdc75a79e4"

ANY_CELL = st.one_of(
    st.text(max_size=12), st.integers(-10**12, 10**12),
    st.floats(allow_nan=True, allow_infinity=True), st.booleans(),
    st.none())


@st.composite
def any_tables(draw):
    n_cols = draw(st.integers(1, 4))
    names = draw(st.lists(st.text(min_size=1, max_size=8).filter(
        lambda name: name.strip()), min_size=n_cols, max_size=n_cols,
        unique_by=lambda name: name.lower()))
    columns = [Column(name, draw(DTYPES)) for name in names]
    rows = [tuple(draw(ANY_CELL) for _ in range(n_cols))
            for _ in range(draw(st.integers(0, 6)))]
    return Table("t", columns, rows)


class TestDigestStability:
    def test_golden_digest(self):
        assert table_fingerprint(GOLDEN_TABLE) == GOLDEN_DIGEST
        assert oracles.table_fingerprint(GOLDEN_TABLE) == GOLDEN_DIGEST

    @given(any_tables())
    @settings(max_examples=200, deadline=None)
    def test_matches_field_at_a_time_reference(self, table):
        assert table_fingerprint(table) == oracles.table_fingerprint(table)

    def test_untagged_cell_type_matches_reference(self):
        class Code(str):
            pass

        table = Table("t", [Column("a")], [(Code("x"),), (b"raw",)])
        assert table_fingerprint(table) == oracles.table_fingerprint(table)
        assert table_fingerprint(table) != table_fingerprint(
            Table("t", [Column("a")], [("x",), (b"raw",)]))
