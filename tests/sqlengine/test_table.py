"""Tests for Column/Table/Database."""

import pytest

from repro.errors import SchemaError
from repro.sqlengine import Column, Database, DataType, Table


def films_table():
    return Table(
        "films",
        [Column("Film Name"), Column("Director"), Column("Actor"),
         Column("Year", DataType.REAL)],
        [("Chopin: Desire for Love", "Jerzy Antczak", "Piotr Adamczyk", 2002),
         ("27 Stolen Kisses", "Nana Djordjadze", "Levan Uchaneishvili", 2000)],
    )


class TestColumn:
    def test_default_dtype_is_text(self):
        assert Column("x").dtype is DataType.TEXT

    def test_empty_name_raises(self):
        with pytest.raises(SchemaError):
            Column("")
        with pytest.raises(SchemaError):
            Column("   ")

    def test_frozen(self):
        col = Column("x")
        with pytest.raises(AttributeError):
            col.name = "y"


class TestTable:
    def test_column_names_ordered(self):
        assert films_table().column_names == [
            "Film Name", "Director", "Actor", "Year"]

    def test_column_index_case_insensitive(self):
        table = films_table()
        assert table.column_index("director") == 1
        assert table.column_index("FILM NAME") == 0

    def test_missing_column_raises(self):
        with pytest.raises(SchemaError):
            films_table().column_index("Producer")

    def test_has_column(self):
        table = films_table()
        assert table.has_column("Actor")
        assert not table.has_column("Actress Name")

    def test_column_values(self):
        assert films_table().column_values("Year") == [2002, 2000]

    def test_duplicate_columns_raise(self):
        with pytest.raises(SchemaError):
            Table("t", [Column("a"), Column("A")])

    def test_row_arity_checked_at_construction(self):
        with pytest.raises(SchemaError):
            Table("t", [Column("a"), Column("b")], [("only-one",)])

    @pytest.mark.parametrize("attr, value", [
        ("rows", [("only-one",)]),
        ("rows", [("x", "y"), ("x", "y", "z")]),
        ("columns", [Column("a")]),
        ("columns", [Column("a"), Column("b"), Column("c")]),
        ("columns", [Column("a"), Column("A")])])
    def test_reassignment_checked_like_construction(self, attr, value):
        table = Table("t", [Column("a"), Column("b")], [("x", "y")])
        fields = {"columns": table.columns, "rows": table.rows, attr: value}
        with pytest.raises(SchemaError) as built:
            Table("t", **fields)
        with pytest.raises(SchemaError) as assigned:
            setattr(table, attr, value)
        assert str(assigned.value) == str(built.value)
        assert table == Table("t", [Column("a"), Column("b")], [("x", "y")])

    def test_valid_reassignment_accepted(self):
        table = Table("t", [Column("a"), Column("b")], [("x", "y")])
        table.columns = [Column("b"), Column("a")]
        table.rows = [("1", "2"), ("3", "4")]
        assert table == Table("t", [Column("b"), Column("a")],
                              [("1", "2"), ("3", "4")])
        empty = Table("e", [Column("a")])
        empty.columns = [Column("a"), Column("b"), Column("c")]
        assert empty.column_names == ["a", "b", "c"]

    def test_insert_validates_arity(self):
        table = films_table()
        with pytest.raises(SchemaError):
            table.insert(("too", "few"))
        table.insert(("New Film", "Someone", "Someone Else", 2020))
        assert len(table) == 3

    def test_column_accessor(self):
        assert films_table().column("year").dtype is DataType.REAL


class TestDatabase:
    def test_add_and_get(self):
        db = Database("test")
        table = films_table()
        db.add(table)
        assert db.get("films") is table
        assert "films" in db
        assert len(db) == 1

    def test_duplicate_add_raises(self):
        db = Database()
        db.add(films_table())
        with pytest.raises(SchemaError):
            db.add(films_table())

    def test_missing_get_raises(self):
        with pytest.raises(SchemaError):
            Database().get("nope")
