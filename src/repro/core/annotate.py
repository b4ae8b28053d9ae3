"""Question annotation and annotated-SQL recovery (Sections IV & V-A).

The annotator converts a question ``q`` into its annotated form ``qᵃ``:
mentions of columns and values are wrapped with placeholder symbols
(``c_i`` / ``v_i``), indexed by order of first reference in the question
(Figure 1); the paper's two encoding refinements are implemented:

* **column name appending** — symbols are inserted *around* mentions,
  keeping the mention text (the ablation replaces the text:
  "symbol substitution");
* **table header encoding** — all headers ``g_1..g_k`` are appended so
  unmentioned multi-token columns can be produced as a single symbol.

The module also builds the annotated SQL ``sᵃ`` used as the seq2seq
training target, and performs the deterministic recovery ``sᵃ → s``.
Both speak one grammar, the token-level mirror of
:func:`repro.sqlengine.parse_sql`: a WikiSQL-sketch conjunction is just
the WHERE tree without ``or``/``not``/parentheses.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import AnnotationError
from repro.sqlengine import (Aggregate, And, Condition, Having, Not, Operator,
                             Or, OrderBy, Query, SortDirection, Table)
from repro.text import tokenize
from repro.text.dependency import parse_dependency

__all__ = [
    "ColumnAnnotation",
    "ValueAnnotation",
    "AnnotatedQuestion",
    "build_annotated_sql",
    "recover_sql",
]

_AGG_TOKENS = {"max", "min", "count", "sum", "avg"}
_OP_TOKENS = {"=", ">", "<"}
# Clause heads after WHERE; each ends the span before it.
_CLAUSE_TOKENS = {"group", "having", "order", "limit"}
# Rendering precedence for the WHERE tree (must mirror ast._render_where
# so recover(build(q)) round-trips): OR < AND < NOT < leaf.
_PREC_OR, _PREC_AND, _PREC_NOT = 1, 2, 3


@dataclass(frozen=True)
class ColumnAnnotation:
    """A detected column reference.

    ``span`` is the mention's ``[start, end)`` token range in the
    original question, or ``None`` for implicit mentions (the column is
    referenced only through a value).  ``index`` is the 1-based symbol
    index: this annotation is ``c_{index}``.
    """

    column: str
    index: int
    span: tuple[int, int] | None


@dataclass(frozen=True)
class ValueAnnotation:
    """A detected value span, paired with its column's symbol index."""

    column: str
    index: int
    span: tuple[int, int]
    surface: str


@dataclass
class AnnotatedQuestion:
    """The annotated form ``qᵃ`` of one question against one table."""

    question_tokens: list[str]
    table: Table
    columns: list[ColumnAnnotation] = field(default_factory=list)
    values: list[ValueAnnotation] = field(default_factory=list)

    def column_annotation(self, column: str) -> ColumnAnnotation | None:
        """Annotation for ``column`` (case-insensitive), if any."""
        target = column.lower()
        for ann in self.columns:
            if ann.column.lower() == target:
                return ann
        return None

    def value_annotation(self, column: str) -> ValueAnnotation | None:
        """Value annotation paired with ``column``, if any."""
        target = column.lower()
        for ann in self.values:
            if ann.column.lower() == target:
                return ann
        return None

    # ------------------------------------------------------------------
    # qᵃ token sequence
    # ------------------------------------------------------------------

    def annotated_tokens(self, append: bool = True,
                         header_encoding: bool = True) -> list[str]:
        """Render the annotated question token sequence.

        ``append=True`` is the paper's *column name appending* (symbols
        inserted before the mention text, text kept); ``append=False``
        is the *symbol substitution* ablation (mention text replaced).
        """
        inserts: dict[int, list[str]] = {}
        replaced: set[int] = set()
        for ann in self.columns:
            if ann.span is None:
                continue
            start, end = ann.span
            inserts.setdefault(start, []).append(f"c{ann.index}")
            if not append:
                replaced.update(range(start, end))
        for ann in self.values:
            start, end = ann.span
            inserts.setdefault(start, []).append(f"v{ann.index}")
            if not append:
                replaced.update(range(start, end))

        out: list[str] = []
        for i, token in enumerate(self.question_tokens):
            out.extend(inserts.get(i, []))
            if i not in replaced:
                out.append(token)
        # Symbols attached past the last token (span start == len).
        out.extend(inserts.get(len(self.question_tokens), []))

        if header_encoding:
            for j, name in enumerate(self.table.column_names, start=1):
                out.append(f"g{j}")
                out.extend(tokenize(name))
        return out

    # ------------------------------------------------------------------
    # Symbol resolution (used by recovery)
    # ------------------------------------------------------------------

    def column_for_symbol(self, symbol: str) -> str:
        """Resolve ``c{i}`` or ``g{j}`` to a column name."""
        if symbol.startswith("c"):
            index = _symbol_index(symbol)
            for ann in self.columns:
                if ann.index == index:
                    return ann.column
            raise AnnotationError(f"no column annotation with index {index}")
        if symbol.startswith("g"):
            index = _symbol_index(symbol)
            names = self.table.column_names
            if not 1 <= index <= len(names):
                raise AnnotationError(f"header symbol {symbol!r} out of range")
            return names[index - 1]
        raise AnnotationError(f"not a column symbol: {symbol!r}")

    def value_for_symbol(self, symbol: str) -> str:
        """Resolve ``v{i}`` to the literal question surface of the value."""
        index = _symbol_index(symbol)
        for ann in self.values:
            if ann.index == index:
                return ann.surface
        raise AnnotationError(f"no value annotation with index {index}")


def _symbol_index(symbol: str) -> int:
    try:
        return int(symbol[1:])
    except ValueError as exc:
        raise AnnotationError(f"malformed symbol {symbol!r}") from exc


# ----------------------------------------------------------------------
# Annotated SQL construction (training targets)
# ----------------------------------------------------------------------


def build_annotated_sql(annotation: AnnotatedQuestion, query: Query,
                        header_encoding: bool = True) -> list[str]:
    """Build the annotated SQL ``sᵃ`` token sequence for a gold query.

    Columns referenced in the annotation become ``c_i``; unreferenced
    columns become header symbols ``g_j`` (when enabled) or literal
    tokens; values with a detected span become ``v_i``, others stay
    literal (the copy mechanism handles them).
    """
    tokens = ["select"]
    if query.aggregate is not Aggregate.NONE:
        tokens.append(query.aggregate.value.lower())
    tokens.extend(_column_tokens(annotation, query.select_column,
                                 header_encoding))
    where = query.where_expr()
    if where is not None:
        tokens.append("where")
        tokens.extend(_where_expr_tokens(annotation, where, header_encoding))
    if query.group_by is not None:
        tokens.extend(["group", "by"])
        tokens.extend(_column_tokens(annotation, query.group_by,
                                     header_encoding))
    if query.having is not None:
        tokens.append("having")
        tokens.append(query.having.aggregate.value.lower())
        tokens.extend(_column_tokens(annotation, query.having.column,
                                     header_encoding))
        tokens.append(query.having.operator.value)
        tokens.extend(tokenize(str(query.having.value)))
    if query.order_by is not None:
        tokens.extend(["order", "by"])
        tokens.extend(_column_tokens(annotation, query.order_by.column,
                                     header_encoding))
        tokens.append(query.order_by.direction.value.lower())
    if query.limit is not None:
        tokens.extend(["limit", str(query.limit)])
    return tokens


def _where_expr_tokens(annotation: AnnotatedQuestion, expr,
                       header_encoding: bool,
                       parent_prec: int = 0) -> list[str]:
    """Annotated tokens of a WHERE tree, parenthesized like ``to_sql``."""
    if isinstance(expr, Condition):
        out = _column_tokens(annotation, expr.column, header_encoding)
        return out + [expr.operator.value] + _value_tokens(annotation, expr)
    if isinstance(expr, Not):
        out = ["not"] + _where_expr_tokens(annotation, expr.operand,
                                           header_encoding, _PREC_NOT)
        prec = _PREC_NOT
    else:
        joiner = "and" if isinstance(expr, And) else "or"
        prec = _PREC_AND if isinstance(expr, And) else _PREC_OR
        out = []
        for i, item in enumerate(expr.items):
            if i:
                out.append(joiner)
            out.extend(_where_expr_tokens(annotation, item,
                                          header_encoding, prec))
    return ["("] + out + [")"] if prec < parent_prec else out


def _column_tokens(annotation: AnnotatedQuestion, column: str,
                   header_encoding: bool) -> list[str]:
    ann = annotation.column_annotation(column)
    if ann is not None:
        return [f"c{ann.index}"]
    if header_encoding:
        for j, name in enumerate(annotation.table.column_names, start=1):
            if name.lower() == column.lower():
                return [f"g{j}"]
    return tokenize(column)


def _value_tokens(annotation: AnnotatedQuestion,
                  cond: Condition) -> list[str]:
    """``v_i`` when the column's (first) value annotation has this surface.

    Value indices pair with the column index, so a second value of the
    same column (range, disjunction) would share the symbol and stays
    literal for recovery to be unambiguous.
    """
    value_surface = tokenize(str(cond.value))
    ann = annotation.value_annotation(cond.column)
    if ann is not None and tokenize(ann.surface) == value_surface:
        return [f"v{ann.index}"]
    return value_surface


# ----------------------------------------------------------------------
# Recovery: annotated SQL tokens -> executable Query
# ----------------------------------------------------------------------


def recover_sql(tokens: list[str], annotation: AnnotatedQuestion) -> Query:
    """Convert a predicted ``sᵃ`` token sequence back to a real query.

    One recursive-descent pass over the grammar ``parse_sql`` reads:
    ``select [agg] col [where or_expr] [group by col] [having agg col op
    val] [order by col [asc|desc]] [limit n]``, with ``or``/``and``/
    ``not``/parentheses in the WHERE tree.  Raises
    :class:`AnnotationError` if the sequence does not follow it.
    """
    if not tokens or tokens[0] != "select":
        raise AnnotationError(f"annotated SQL must start with 'select': {tokens}")
    pos = 1
    aggregate = Aggregate.NONE
    if pos < len(tokens) and tokens[pos] in _AGG_TOKENS:
        aggregate = Aggregate.from_token(tokens[pos])
        pos += 1

    select_stops = {"where"} | _CLAUSE_TOKENS
    select_tokens, pos = _take_until(tokens, pos, select_stops)
    select_column = _resolve_column(select_tokens, annotation)

    where_expr = None
    if pos < len(tokens) and tokens[pos] == "where":
        pos += 1
        where_expr, pos = _recover_or_expr(tokens, pos, annotation)

    group_by = None
    if pos < len(tokens) and tokens[pos] == "group":
        pos += 1
        if pos >= len(tokens) or tokens[pos] != "by":
            raise AnnotationError("GROUP must be followed by BY")
        pos += 1
        col_tokens, pos = _take_until(tokens, pos,
                                      {"having", "order", "limit"})
        group_by = _resolve_column(col_tokens, annotation)

    having = None
    if pos < len(tokens) and tokens[pos] == "having":
        pos += 1
        if pos >= len(tokens) or tokens[pos] not in _AGG_TOKENS:
            raise AnnotationError("HAVING must start with an aggregate")
        having_agg = Aggregate.from_token(tokens[pos])
        pos += 1
        col_tokens, pos = _take_until(tokens, pos, _OP_TOKENS)
        if pos >= len(tokens):
            raise AnnotationError("HAVING condition missing operator")
        having_op = Operator.from_token(tokens[pos])
        pos += 1
        val_tokens, pos = _take_until(tokens, pos, {"order", "limit"})
        having = Having(having_agg, _resolve_column(col_tokens, annotation),
                        having_op, _resolve_value(val_tokens, annotation))

    order_by = None
    if pos < len(tokens) and tokens[pos] == "order":
        pos += 1
        if pos >= len(tokens) or tokens[pos] != "by":
            raise AnnotationError("ORDER must be followed by BY")
        pos += 1
        col_tokens, pos = _take_until(tokens, pos,
                                      {"asc", "desc", "limit"})
        direction = SortDirection.ASC
        if pos < len(tokens) and tokens[pos] in ("asc", "desc"):
            direction = SortDirection.from_token(tokens[pos])
            pos += 1
        order_by = OrderBy(_resolve_column(col_tokens, annotation), direction)

    limit = None
    if pos < len(tokens) and tokens[pos] == "limit":
        pos += 1
        if pos >= len(tokens):
            raise AnnotationError("LIMIT missing its value")
        value = _resolve_value([tokens[pos]], annotation)
        pos += 1
        if not isinstance(value, int) or isinstance(value, bool) or value < 0:
            raise AnnotationError(f"LIMIT must be a non-negative integer, "
                                  f"got {value!r}")
        limit = value

    if pos < len(tokens):
        raise AnnotationError(
            f"trailing tokens after query: {tokens[pos:]!r}")
    return Query(select_column=select_column, aggregate=aggregate,
                 where=where_expr, group_by=group_by, having=having,
                 order_by=order_by, limit=limit)


def _recover_or_expr(tokens: list[str], pos: int,
                     annotation: AnnotatedQuestion):
    expr, pos = _recover_and_expr(tokens, pos, annotation)
    items = [expr]
    while pos < len(tokens) and tokens[pos] == "or":
        item, pos = _recover_and_expr(tokens, pos + 1, annotation)
        items.append(item)
    return (items[0] if len(items) == 1 else Or(tuple(items))), pos


def _recover_and_expr(tokens: list[str], pos: int,
                      annotation: AnnotatedQuestion):
    expr, pos = _recover_unary(tokens, pos, annotation)
    items = [expr]
    while pos < len(tokens) and tokens[pos] == "and":
        item, pos = _recover_unary(tokens, pos + 1, annotation)
        items.append(item)
    return (items[0] if len(items) == 1 else And(tuple(items))), pos


def _recover_unary(tokens: list[str], pos: int,
                   annotation: AnnotatedQuestion):
    if pos >= len(tokens):
        raise AnnotationError("WHERE clause ends unexpectedly")
    if tokens[pos] == "not":
        operand, pos = _recover_unary(tokens, pos + 1, annotation)
        return Not(operand), pos
    if tokens[pos] == "(":
        expr, pos = _recover_or_expr(tokens, pos + 1, annotation)
        if pos >= len(tokens) or tokens[pos] != ")":
            raise AnnotationError("unbalanced '(' in WHERE clause")
        return expr, pos + 1
    col_stops = _OP_TOKENS | {"and", "or", "(", ")"} | _CLAUSE_TOKENS
    col_tokens, pos = _take_until(tokens, pos, col_stops)
    if pos >= len(tokens) or tokens[pos] not in _OP_TOKENS:
        raise AnnotationError("condition missing operator")
    operator = Operator.from_token(tokens[pos])
    pos += 1
    val_stops = {"and", "or", ")"} | _CLAUSE_TOKENS
    val_tokens, pos = _take_until(tokens, pos, val_stops)
    return Condition(_resolve_column(col_tokens, annotation), operator,
                     _resolve_value(val_tokens, annotation)), pos


def _take_until(tokens: list[str], pos: int,
                stops: set[str]) -> tuple[list[str], int]:
    out = []
    while pos < len(tokens) and tokens[pos] not in stops:
        out.append(tokens[pos])
        pos += 1
    return out, pos


def _is_symbol(token: str, prefix: str) -> bool:
    return (len(token) >= 2 and token.startswith(prefix)
            and token[1:].isdigit())


def _check_no_leaked_symbol(parts: list[str], role: str) -> None:
    """A symbol stands alone: one inside a multi-token span is a
    translation error, not part of a name or value."""
    if len(parts) > 1 and any(_is_symbol(part, prefix) for part in parts
                              for prefix in "cgv"):
        raise AnnotationError(
            f"symbol inside a multi-token {role} span: {' '.join(parts)!r}")


def _resolve_column(parts: list[str], annotation: AnnotatedQuestion) -> str:
    if not parts:
        raise AnnotationError("empty column reference")
    _check_no_leaked_symbol(parts, "column")
    if len(parts) == 1 and (_is_symbol(parts[0], "c")
                            or _is_symbol(parts[0], "g")):
        return annotation.column_for_symbol(parts[0])
    name = " ".join(parts)
    if not annotation.table.has_column(name):
        raise AnnotationError(f"no column {name!r} in the table")
    return name


def _resolve_value(parts: list[str], annotation: AnnotatedQuestion):
    if not parts:
        raise AnnotationError("empty value reference")
    _check_no_leaked_symbol(parts, "value")
    if len(parts) == 1 and _is_symbol(parts[0], "v"):
        text = annotation.value_for_symbol(parts[0])
    else:
        text = " ".join(parts)
    try:
        number = float(text)
    except ValueError:
        return text
    return int(number) if number.is_integer() else number
