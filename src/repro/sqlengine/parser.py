"""Parser for the WikiSQL-sketch SQL dialect and its extended grammar.

Grammar (case-insensitive keywords)::

    query    := SELECT [AGG '('] column [')']
                [WHERE or_expr]
                [GROUP BY column] [HAVING AGG '(' column ')' op value]
                [ORDER BY column [ASC|DESC]] [LIMIT int]
    or_expr  := and_expr (OR and_expr)*
    and_expr := unary (AND unary)*
    unary    := NOT unary | '(' or_expr ')' | cond
    cond     := column op value
    op       := '=' | '>' | '<'
    value    := '"' text '"' | number | bareword+

Column names may contain spaces (e.g. ``Film Name``); inside a condition
the column is everything before the operator and the value everything
after it up to the next AND/OR/parenthesis, each kept as its raw text
span (inner spacing preserved).  A bare AND/OR never sits inside a
column, so a dangling or doubled connective is an error.  Every WHERE
clause, flat conjunction or tree, is parsed by this one grammar;
:class:`Query` stores a bare conjunction of conditions in its
``conditions`` list.

All splitting is done over a quote-aware token stream: quoted strings
are single tokens, so ``genre = "rock and roll"`` never splits at the
embedded AND, and a bareword apostrophe (``o'connor``) does not open a
quote.
"""

from __future__ import annotations

import re

from repro.errors import SQLParseError
from repro.sqlengine.ast import And, Condition, Having, Not, Or, OrderBy, Query
from repro.sqlengine.types import Aggregate, Operator, SortDirection

__all__ = ["parse_sql"]

_AGG_RE = re.compile(
    r"^\s*(max|min|count|sum|avg)\s*\(\s*(.+?)\s*\)\s*$", re.IGNORECASE)
_HAVING_PAREN_RE = re.compile(
    r"^\s*(max|min|count|sum|avg)\s*\(\s*(.+?)\s*\)\s*(=|>|<)\s*(.+?)\s*$",
    re.IGNORECASE)
_HAVING_BARE_RE = re.compile(
    r"^\s*(max|min|count|sum|avg)\s+(.+?)\s*(=|>|<)\s*(.+?)\s*$",
    re.IGNORECASE)

# Quoted strings are single tokens (tried first, so an opening quote
# always pairs with its closer); parens and comparison operators are
# their own tokens; a bareword may contain interior apostrophes
# (``o'connor``) without opening a quote.
_TOKEN_RE = re.compile(
    r'"[^"]*"'
    r"|'[^']*'"
    r"|[()=<>]"
    r"|[^\s()=<>\"']+(?:'[^\s()=<>\"']*)*"
)

# Clause keywords in their only legal order.
_CLAUSE_ORDER = {"from": 0, "where": 1, "group": 2, "having": 3,
                 "order": 4, "limit": 5}
_OPERATOR_TOKENS = {"=", ">", "<"}


def _parse_value(text: str):
    """Interpret a condition's right-hand side: quoted text or number."""
    text = text.strip()
    if len(text) >= 2 and text[0] == '"' and text[-1] == '"':
        return text[1:-1]
    if len(text) >= 2 and text[0] == "'" and text[-1] == "'":
        return text[1:-1]
    try:
        number = float(text)
    except ValueError:
        return text  # bare words act as unquoted text values
    return int(number) if number.is_integer() else number


def _parse_select(select_text: str) -> tuple[Aggregate, str]:
    select_text = select_text.strip()
    if not select_text:
        raise SQLParseError("empty SELECT clause")
    agg_match = _AGG_RE.match(select_text)
    if agg_match:
        return Aggregate.from_token(agg_match.group(1)), agg_match.group(2).strip()
    # Also accept "AGG column" without parentheses (annotated SQL style).
    head, _, rest = select_text.partition(" ")
    if head.upper() in {"MAX", "MIN", "COUNT", "SUM", "AVG"} and rest.strip():
        return Aggregate.from_token(head), rest.strip()
    return Aggregate.NONE, select_text


def _split_clauses(body: str) -> tuple[str, dict[str, str]]:
    """Split the post-SELECT body into (select_text, clause -> text).

    Clause keywords are recognised only at parenthesis depth 0 and only
    as standalone tokens (``GROUP``/``ORDER`` must be followed by
    ``BY``), so quoted values and parenthesized expressions never start
    a clause.
    """
    matches = list(_TOKEN_RE.finditer(body))
    boundaries: list[tuple[str, int, int]] = []  # (name, start, content_start)
    depth = 0
    i = 0
    while i < len(matches):
        token = matches[i].group(0)
        if token == "(":
            depth += 1
        elif token == ")":
            depth = max(0, depth - 1)
        elif depth == 0:
            lowered = token.lower()
            if lowered in ("group", "order"):
                nxt = matches[i + 1] if i + 1 < len(matches) else None
                if nxt is not None and nxt.group(0).lower() == "by":
                    boundaries.append(
                        (lowered, matches[i].start(), nxt.end()))
                    i += 2
                    continue
            elif lowered in ("where", "having", "limit") or (
                    lowered == "from" and not boundaries):
                # FROM is only a clause head before any other clause; a
                # later bareword "from" is an ordinary value token.
                boundaries.append((lowered, matches[i].start(),
                                   matches[i].end()))
        i += 1

    last_rank = -1
    for name, _, _ in boundaries:
        rank = _CLAUSE_ORDER[name]
        if rank <= last_rank:
            raise SQLParseError(
                f"clause {name.upper()!r} out of order or repeated: {body!r}")
        last_rank = rank

    select_text = body[:boundaries[0][1]] if boundaries else body
    clauses: dict[str, str] = {}
    for j, (name, _, content_start) in enumerate(boundaries):
        end = boundaries[j + 1][1] if j + 1 < len(boundaries) else len(body)
        clauses[name] = body[content_start:end].strip()
    return select_text, clauses


class _WhereTreeParser:
    """Recursive-descent parser for the boolean WHERE grammar."""

    def __init__(self, text: str):
        self.text = text
        self.matches = list(_TOKEN_RE.finditer(text))
        self.tokens = [m.group(0) for m in self.matches]
        self.pos = 0

    def _peek(self) -> str | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def parse(self):
        expr = self._or_expr()
        if self.pos < len(self.tokens):
            raise SQLParseError(
                f"trailing tokens in WHERE clause: {self.tokens[self.pos:]!r}")
        return expr

    def _or_expr(self):
        items = [self._and_expr()]
        while self._peek() is not None and self._peek().lower() == "or":
            self.pos += 1
            items.append(self._and_expr())
        return items[0] if len(items) == 1 else Or(tuple(items))

    def _and_expr(self):
        items = [self._unary()]
        while self._peek() is not None and self._peek().lower() == "and":
            self.pos += 1
            items.append(self._unary())
        return items[0] if len(items) == 1 else And(tuple(items))

    def _unary(self):
        token = self._peek()
        if token is None:
            raise SQLParseError("WHERE clause ends unexpectedly")
        if token.lower() == "not":
            self.pos += 1
            return Not(self._unary())
        if token == "(":
            self.pos += 1
            expr = self._or_expr()
            if self._peek() != ")":
                raise SQLParseError("unbalanced '(' in WHERE clause")
            self.pos += 1
            return expr
        return self._condition()

    def _edge(self, index: int) -> int:
        """Text offset where token ``index`` starts (text end past the
        last token)."""
        if index < len(self.matches):
            return self.matches[index].start()
        return len(self.text)

    def _condition(self) -> Condition:
        # Column and value are the raw text between their delimiting
        # tokens, so inner spacing and any character the tokenizer skips
        # (the unpaired quote of a rendered value that contains ``"``)
        # survive.
        start = self.matches[self.pos - 1].end() if self.pos else 0
        while True:
            token = self._peek()
            if (token is None or token in ")("
                    or token.lower() in ("and", "or")):
                near = self.text[start:self._edge(self.pos)].strip()
                raise SQLParseError(
                    f"condition is missing an operator near {near!r}"
                    if near else "condition is missing a column")
            if token in _OPERATOR_TOKENS:
                break
            self.pos += 1
        column = self.text[start:self._edge(self.pos)].strip()
        if not column:
            raise SQLParseError("condition is missing a column")
        operator = Operator.from_token(self.tokens[self.pos])
        self.pos += 1
        start = self.matches[self.pos - 1].end()
        while True:
            token = self._peek()
            if (token is None or token in "()"
                    or token.lower() in ("and", "or")):
                break
            self.pos += 1
        value = self.text[start:self._edge(self.pos)].strip()
        if not value:
            raise SQLParseError(
                f"condition on {column!r} is missing a value")
        return Condition(column, operator, _parse_value(value))


def parse_sql(text: str) -> Query:
    """Parse SQL text into a :class:`~repro.sqlengine.ast.Query`.

    Raises
    ------
    SQLParseError
        If the text does not follow the (extended) WikiSQL sketch.
    """
    if not text or not text.strip():
        raise SQLParseError("empty SQL text")
    stripped = text.strip().rstrip(";")
    lowered = stripped.lower()
    if not lowered.startswith("select"):
        raise SQLParseError(f"query must start with SELECT: {text!r}")
    body = stripped[len("select"):].strip()

    select_text, clauses = _split_clauses(body)
    # Tolerate an explicit FROM clause (we are single-table).
    clauses.pop("from", None)
    aggregate, column = _parse_select(select_text)

    where_expr = None
    if "where" in clauses:
        if not clauses["where"]:
            raise SQLParseError(f"WHERE clause is empty: {text!r}")
        where_expr = _WhereTreeParser(clauses["where"]).parse()

    group_by = None
    if "group" in clauses:
        group_by = clauses["group"]
        if not group_by:
            raise SQLParseError(f"GROUP BY clause is empty: {text!r}")

    having = None
    if "having" in clauses:
        having = _parse_having(clauses["having"])

    order_by = None
    if "order" in clauses:
        order_by = _parse_order(clauses["order"])

    limit = None
    if "limit" in clauses:
        limit_text = clauses["limit"]
        if not re.fullmatch(r"\d+", limit_text):
            raise SQLParseError(f"LIMIT must be a non-negative integer: "
                                f"{limit_text!r}")
        limit = int(limit_text)

    return Query(select_column=column, aggregate=aggregate,
                 where=where_expr, group_by=group_by, having=having,
                 order_by=order_by, limit=limit)


def _parse_having(text: str) -> Having:
    match = _HAVING_PAREN_RE.match(text) or _HAVING_BARE_RE.match(text)
    if not match:
        raise SQLParseError(f"cannot parse HAVING clause {text!r}")
    agg, column, op, value = match.groups()
    return Having(Aggregate.from_token(agg), column.strip(),
                  Operator.from_token(op), _parse_value(value))


def _parse_order(text: str) -> OrderBy:
    if not text:
        raise SQLParseError("ORDER BY clause is empty")
    direction = SortDirection.ASC
    head, _, tail = text.rpartition(" ")
    if head and tail.lower() in ("asc", "desc"):
        direction = SortDirection.from_token(tail)
        text = head.strip()
    if not text:
        raise SQLParseError("ORDER BY clause has no column")
    return OrderBy(text, direction)
