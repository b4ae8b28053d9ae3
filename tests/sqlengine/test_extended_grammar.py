"""Extended-grammar round-trip and parser-hardening tests.

The central invariant: for any query over the extended sketch (boolean
WHERE trees, GROUP BY + HAVING, ORDER BY, LIMIT), rendering to SQL and
parsing back yields an equal :class:`Query` — ``parse_sql(str(q)) == q``
— including values whose text contains AND/OR keywords or apostrophes.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sqlengine import (
    Aggregate,
    And,
    Column,
    Condition,
    DataType,
    Having,
    Not,
    Operator,
    Or,
    OrderBy,
    Query,
    SortDirection,
    Table,
    execute,
    parse_sql,
    results_equal,
)

# "film  name" (two spaces) checks that columns keep their raw spacing.
COLUMNS = st.sampled_from(["name", "city", "pop", "film name", "film  name"])
# Deliberately hostile value surfaces: embedded AND/OR keywords,
# apostrophes, digit-only strings.
WORDS = st.sampled_from([
    "mayo", "cork", "rock and roll", "now or never", "o'connor",
    "not applicable", "42nd street",
])
VALUES = st.one_of(WORDS, st.integers(0, 1000))
OPERATORS = st.sampled_from(list(Operator))
AGGREGATES = st.sampled_from(list(Aggregate))
# HAVING requires an actual aggregate function (NONE is SELECT-only).
REAL_AGGREGATES = st.sampled_from(
    [a for a in Aggregate if a is not Aggregate.NONE])
DIRECTIONS = st.sampled_from(list(SortDirection))

CONDITIONS = st.builds(Condition, column=COLUMNS, operator=OPERATORS,
                       value=VALUES)

WHERE_TREES = st.recursive(
    CONDITIONS,
    lambda children: st.one_of(
        st.builds(Not, children),
        st.builds(lambda items: And(tuple(items)),
                  st.lists(children, min_size=2, max_size=3)),
        st.builds(lambda items: Or(tuple(items)),
                  st.lists(children, min_size=2, max_size=3)),
    ),
    max_leaves=6,
)

HAVINGS = st.builds(Having, aggregate=REAL_AGGREGATES, column=COLUMNS,
                    operator=OPERATORS, value=st.integers(0, 50))
ORDER_BYS = st.builds(OrderBy, column=COLUMNS, direction=DIRECTIONS)


@st.composite
def extended_queries(draw):
    """Any clause combination the grammar admits (not all executable)."""
    group_by = draw(st.none() | COLUMNS)
    return Query(
        select_column=draw(COLUMNS),
        aggregate=draw(AGGREGATES),
        where=draw(st.none() | WHERE_TREES),
        group_by=group_by,
        having=draw(st.none() | HAVINGS) if group_by is not None else None,
        order_by=draw(st.none() | ORDER_BYS),
        limit=draw(st.none() | st.integers(0, 20)),
    )


class TestRoundTrip:
    @given(extended_queries())
    @settings(max_examples=200, deadline=None)
    def test_parse_of_rendered_sql_is_equal(self, query):
        assert parse_sql(str(query)) == query

    @given(extended_queries())
    @settings(max_examples=100, deadline=None)
    def test_rendering_is_a_fixpoint(self, query):
        sql = query.to_sql()
        assert parse_sql(sql).to_sql() == sql

    @given(extended_queries())
    @settings(max_examples=100, deadline=None)
    def test_canonical_survives_round_trip(self, query):
        assert parse_sql(str(query)).canonical() == query.canonical()

    @given(st.lists(CONDITIONS, min_size=1, max_size=4))
    @settings(max_examples=100, deadline=None)
    def test_legacy_flat_conjunction_stays_legacy(self, conditions):
        query = Query("name", Aggregate.NONE, conditions)
        reparsed = parse_sql(query.to_sql())
        assert not reparsed.is_extended
        assert reparsed.conditions == conditions
        assert reparsed == query


class TestParserHardening:
    """Quote-aware splitting: keywords inside values never split."""

    def test_and_inside_quoted_value(self):
        query = parse_sql(
            'SELECT name WHERE genre = "rock and roll" AND pop > 5')
        assert query.conditions == [
            Condition("genre", Operator.EQ, "rock and roll"),
            Condition("pop", Operator.GT, 5)]

    def test_or_inside_quoted_value_with_tree(self):
        query = parse_sql(
            'SELECT name WHERE song = "now or never" OR song = "mayo"')
        assert query.where == Or((
            Condition("song", Operator.EQ, "now or never"),
            Condition("song", Operator.EQ, "mayo")))

    def test_bareword_apostrophe_does_not_open_quote(self):
        query = parse_sql("SELECT city WHERE name = o'connor AND pop > 3")
        assert query.conditions == [
            Condition("name", Operator.EQ, "o'connor"),
            Condition("pop", Operator.GT, 3)]

    def test_clause_keyword_inside_quoted_value(self):
        query = parse_sql('SELECT name WHERE motto = "order by merit"')
        assert query.order_by is None
        assert query.conditions == [
            Condition("motto", Operator.EQ, "order by merit")]

    def test_not_keyword_inside_quoted_value(self):
        query = parse_sql('SELECT name WHERE status = "not applicable"')
        assert query.where is None
        assert query.conditions == [
            Condition("status", Operator.EQ, "not applicable")]


class TestCanonicalization:
    def test_or_operands_commute_under_query_match(self):
        a = Query("name", where=Or((Condition("city", Operator.EQ, "cork"),
                                    Condition("city", Operator.EQ, "mayo"))))
        b = Query("name", where=Or((Condition("city", Operator.EQ, "mayo"),
                                    Condition("city", Operator.EQ, "cork"))))
        assert a.query_match_equal(b)
        assert not a.logical_form_equal(b)

    def test_and_or_nesting_does_not_commute_across_groups(self):
        nested = Query("name", where=Or((
            And((Condition("a", Operator.EQ, 1),
                 Condition("b", Operator.EQ, 2))),
            Condition("c", Operator.EQ, 3))))
        flat = Query("name", where=And((
            Condition("a", Operator.EQ, 1),
            Or((Condition("b", Operator.EQ, 2),
                Condition("c", Operator.EQ, 3))))))
        assert not nested.query_match_equal(flat)

    def test_double_negation_is_not_collapsed(self):
        inner = Condition("city", Operator.EQ, "cork")
        assert not Query("name", where=Not(Not(inner))).query_match_equal(
            Query("name", where=inner))


def _table():
    return Table("t", [Column("name"), Column("pop", DataType.REAL)],
                 [("anna", 5), ("bob", 9), ("carol", 9), ("dave", 2)])


class TestOrderByDeterminism:
    def test_ties_keep_row_order_both_directions(self):
        desc = Query("name", order_by=OrderBy("pop", SortDirection.DESC))
        asc = Query("name", order_by=OrderBy("pop", SortDirection.ASC))
        # bob and carol tie on pop=9; table order (bob before carol)
        # is preserved under both sort directions.
        assert execute(desc, _table()) == ["bob", "carol", "anna", "dave"]
        assert execute(asc, _table()) == ["dave", "anna", "bob", "carol"]

    def test_limit_after_deterministic_sort(self):
        query = Query("name", order_by=OrderBy("pop", SortDirection.DESC),
                      limit=2)
        assert execute(query, _table()) == ["bob", "carol"]

    @given(extended_queries())
    @settings(max_examples=60, deadline=None)
    def test_execution_of_reparsed_query_matches(self, query):
        table = Table("t", [Column("name"), Column("city"),
                            Column("pop", DataType.REAL),
                            Column("film name")],
                      [("anna", "mayo", 5, "alpha"),
                       ("bob", "cork", 9, "beta")])
        try:
            expected = execute(query, table)
        except Exception:
            return  # invalid clause combination — parser equality covered above
        assert results_equal(expected, execute(parse_sql(str(query)), table))
