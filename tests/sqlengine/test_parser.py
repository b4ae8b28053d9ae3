"""Tests for the WikiSQL-sketch SQL parser."""

import pytest

from repro.errors import SQLParseError
from repro.sqlengine import Aggregate, Operator, parse_sql


class TestSelectClause:
    def test_plain_select(self):
        q = parse_sql("SELECT Film Name")
        assert q.select_column == "Film Name"
        assert q.aggregate is Aggregate.NONE
        assert q.conditions == []

    def test_aggregate_with_parens(self):
        q = parse_sql("SELECT COUNT(Film Name)")
        assert q.aggregate is Aggregate.COUNT
        assert q.select_column == "Film Name"

    @pytest.mark.parametrize("agg", ["MAX", "MIN", "COUNT", "SUM", "AVG"])
    def test_all_aggregates(self, agg):
        q = parse_sql(f"SELECT {agg}(Population)")
        assert q.aggregate.value == agg

    def test_aggregate_without_parens(self):
        q = parse_sql("SELECT MAX Population WHERE County = \"Mayo\"")
        assert q.aggregate is Aggregate.MAX
        assert q.select_column == "Population"

    def test_case_insensitive_keywords(self):
        q = parse_sql("select avg(score) where name = \"x\"")
        assert q.aggregate is Aggregate.AVG

    def test_from_clause_tolerated(self):
        q = parse_sql("SELECT Name FROM people WHERE Age > 30")
        assert q.select_column == "Name"
        assert len(q.conditions) == 1

    def test_trailing_semicolon(self):
        q = parse_sql("SELECT Name;")
        assert q.select_column == "Name"


class TestWhereClause:
    def test_single_condition_quoted(self):
        q = parse_sql('SELECT a WHERE b = "hello world"')
        cond = q.conditions[0]
        assert cond.column == "b"
        assert cond.operator is Operator.EQ
        assert cond.value == "hello world"

    def test_multiple_conditions(self):
        q = parse_sql('SELECT a WHERE b = "x" AND c > 5 AND d < 2.5')
        assert len(q.conditions) == 3
        assert q.conditions[1].operator is Operator.GT
        assert q.conditions[1].value == 5
        assert q.conditions[2].value == 2.5

    def test_and_inside_quoted_value_not_split(self):
        q = parse_sql('SELECT a WHERE b = "rock and roll"')
        assert len(q.conditions) == 1
        assert q.conditions[0].value == "rock and roll"

    def test_multiword_condition_column(self):
        q = parse_sql('SELECT a WHERE English Name = "Carrowteige"')
        assert q.conditions[0].column == "English Name"

    def test_numeric_value_int(self):
        q = parse_sql("SELECT a WHERE b = 42")
        assert q.conditions[0].value == 42
        assert isinstance(q.conditions[0].value, int)

    def test_bareword_value(self):
        q = parse_sql("SELECT a WHERE b = Mayo")
        assert q.conditions[0].value == "Mayo"

    def test_single_quotes(self):
        q = parse_sql("SELECT a WHERE b = 'Mayo Town'")
        assert q.conditions[0].value == "Mayo Town"


class TestErrors:
    def test_empty_raises(self):
        with pytest.raises(SQLParseError):
            parse_sql("")
        with pytest.raises(SQLParseError):
            parse_sql("   ")

    def test_not_select_raises(self):
        with pytest.raises(SQLParseError):
            parse_sql("DELETE FROM t")

    def test_empty_select_raises(self):
        with pytest.raises(SQLParseError):
            parse_sql("SELECT  WHERE a = 1")

    def test_empty_where_raises(self):
        with pytest.raises(SQLParseError):
            parse_sql("SELECT a WHERE ")

    def test_condition_without_operator_raises(self):
        with pytest.raises(SQLParseError):
            parse_sql("SELECT a WHERE b c")

    @pytest.mark.parametrize("sql", [
        "SELECT a WHERE b = 1 AND",
        "SELECT a WHERE AND b = 1",
        "SELECT a WHERE b = 1 AND AND c = 2",
        "SELECT a WHERE b = 1 OR",
    ])
    def test_dangling_or_doubled_connective_raises(self, sql):
        with pytest.raises(SQLParseError):
            parse_sql(sql)

    def test_unknown_aggregate_not_treated_as_agg(self):
        # FOO(x) is not an aggregate; it parses as a plain column name.
        q = parse_sql("SELECT FOO(x)")
        assert q.aggregate is Aggregate.NONE


class TestRoundTrip:
    @pytest.mark.parametrize("sql", [
        'SELECT Film Name WHERE Director = "Jerzy Antczak"',
        'SELECT COUNT(Name) WHERE Age > 30 AND City = "Galway"',
        "SELECT AVG(Population)",
        'SELECT Name WHERE Score < 2.5',
    ])
    def test_parse_render_parse_is_stable(self, sql):
        q1 = parse_sql(sql)
        q2 = parse_sql(q1.to_sql())
        assert q1.canonical() == q2.canonical()
        assert q1.tokens() == q2.tokens()
