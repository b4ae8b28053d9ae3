"""Property-based tests for the table content fingerprint.

The serving cache and the annotator's per-table cache both key on
:func:`repro.sqlengine.table_fingerprint`; these properties are what
make that keying sound: content-equal tables collide, any content edit
separates, and the digest is process-stable (no dependence on the
interpreter's salted ``hash()``).  A golden digest
and a differential against the field-at-a-time reference
(``tests/oracles.py``) pin that the digest never changes.
"""

import copy
import dataclasses
import os
import pickle
import subprocess
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SchemaError
from repro.sqlengine import Column, DataType, Table, table_fingerprint
from repro.sqlengine import fingerprint as fingerprint_module
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
        columns = list(table.columns)
        columns[i] = Column(columns[i].name + "x", columns[i].dtype)
        mutated = Table(table.name, columns, table.rows)
        assert table_fingerprint(mutated) != table_fingerprint(table)

    @given(tables(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_changing_any_column_type_changes_hash(self, table, data):
        i = data.draw(st.integers(0, len(table.columns) - 1))
        old = table.columns[i]
        flipped = (DataType.REAL if old.dtype is DataType.TEXT
                   else DataType.TEXT)
        columns = list(table.columns)
        columns[i] = Column(old.name, flipped)
        mutated = Table(table.name, columns, table.rows)
        assert table_fingerprint(mutated) != table_fingerprint(table)

    @given(tables(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_changing_any_cell_changes_hash(self, table, data):
        if not table.rows:
            return
        r = data.draw(st.integers(0, len(table.rows) - 1))
        c = data.draw(st.integers(0, len(table.columns) - 1))
        rows = [list(row) for row in table.rows]
        rows[r][c] = str(rows[r][c]) + "_edited"
        mutated = Table(table.name, table.columns, rows)
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


def films() -> Table:
    return Table("films", [Column("film"), Column("year", DataType.REAL)],
                 [("solaris", 1972), ("stalker", 1979)])


class TestTableValue:
    """A table's content changes only through code that drops its
    remembered fingerprint."""

    def test_in_place_edits_raise(self):
        table = films()
        with pytest.raises(TypeError):
            table.rows[0] = ("mirror", 1975)
        with pytest.raises(AttributeError):
            table.rows.append(("mirror", 1975))
        with pytest.raises(TypeError):
            table.rows[0][1] = 1975
        with pytest.raises(TypeError):
            table.columns[0] = Column("movie")
        assert table == films()

    def test_lists_are_stored_as_tuples(self):
        table = Table("t", [Column("a")], [["x"], ["y"]])
        assert table.columns == (Column("a"),)
        assert table.rows == (("x",), ("y",))
        table.rows = [["z"]]
        assert table.rows == (("z",),)

    @pytest.mark.parametrize("edit", ["insert", "rows", "columns"])
    def test_edit_after_memo_changes_the_digest(self, edit):
        table = films()
        before = table_fingerprint(table)
        if edit == "insert":
            table.insert(("mirror", 1975))
        elif edit == "rows":
            table.rows = table.rows[:1]
        else:
            table.columns = [Column("movie"), Column("year", DataType.REAL)]
        after = table_fingerprint(table)
        assert after != before
        assert after == oracles.table_fingerprint(table)

    @pytest.mark.parametrize("attr, value", [
        ("rows", [("only-one",)]),
        ("columns", [Column("film")]),
        ("columns", [Column("film"), Column("FILM")])])
    def test_malformed_edit_raises_and_keeps_the_memo(self, attr, value):
        table = films()
        before = table_fingerprint(table)
        with pytest.raises(SchemaError):
            setattr(table, attr, value)
        assert table == films()
        assert table._fingerprint == before
        assert table_fingerprint(table) == oracles.table_fingerprint(table)

    @pytest.mark.parametrize("attr, value", [
        ("rows", [("mirror", 1975)]),
        ("columns", [Column("movie"), Column("year", DataType.REAL)])])
    def test_valid_edit_drops_the_memo(self, attr, value):
        table = films()
        table_fingerprint(table)
        assert table._fingerprint is not None
        setattr(table, attr, value)
        assert table._fingerprint is None
        assert table_fingerprint(table) == oracles.table_fingerprint(table)

    def test_renaming_keeps_the_digest(self):
        table = films()
        before = table_fingerprint(table)
        table.name = "films_reloaded"
        assert table_fingerprint(table) == before

    @pytest.mark.parametrize("duplicate", [
        copy.copy, copy.deepcopy,
        lambda table: dataclasses.replace(table),
        lambda table: dataclasses.replace(table, name="other"),
        lambda table: pickle.loads(pickle.dumps(table))])
    @pytest.mark.parametrize("hashed_first", [False, True])
    def test_copies_hash_like_the_oracle(self, duplicate, hashed_first):
        table = films()
        if hashed_first:
            table_fingerprint(table)
        twin = duplicate(table)
        assert table_fingerprint(twin) == oracles.table_fingerprint(table)
        twin.insert(("mirror", 1975))
        assert table_fingerprint(twin) == oracles.table_fingerprint(twin)
        assert table_fingerprint(table) == oracles.table_fingerprint(table)

    def test_racing_threads_agree(self):
        table = Table("wide", [Column(f"c{j}") for j in range(8)],
                      [tuple(f"r{i}c{j}" for j in range(8))
                       for i in range(400)])
        barrier = threading.Barrier(8, timeout=30)
        digests = []

        def worker():
            barrier.wait()
            digests.append(table_fingerprint(table))

        threads = [threading.Thread(target=worker) for _ in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert digests == [oracles.table_fingerprint(table)] * 8

    def test_memo_hashes_each_value_once(self, monkeypatch):
        fields = []
        original = fingerprint_module._field
        monkeypatch.setattr(fingerprint_module, "_field",
                            lambda data: fields.append(data) or original(data))
        table = films()
        first = table_fingerprint(table)
        hashed = len(fields)
        assert hashed > 0
        assert table_fingerprint(table) == first
        assert len(fields) == hashed


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
