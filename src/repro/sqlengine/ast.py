"""Query AST for the WikiSQL sketch and its extended grammar.

A :class:`Query` is ``SELECT [agg] select_column`` followed by optional
clauses: a boolean WHERE *tree* (:class:`And` / :class:`Or` /
:class:`Not` over :class:`Condition` leaves), ``GROUP BY`` +
:class:`Having`, :class:`OrderBy`, and ``LIMIT``.  Construction stores a
tree that is a bare conjunction of conditions (the WikiSQL sketch) in
the ``conditions`` list and anything richer in ``where``, so queries
compare equal regardless of which surface built them; every view reads
the clause through :meth:`Query.where_expr`.

The AST provides the three comparison views the paper's metrics need:

* :meth:`Query.tokens` — the token-by-token *logical form* (condition
  order preserved), for ``Acc_lf``;
* :meth:`Query.canonical` — a canonical representation (lower-cased;
  operand order normalized only within commutative AND/OR groups), for
  *query-match* ``Acc_qm``;
* :meth:`Query.to_sql` — printable SQL text (precedence-correct
  parentheses, and ``str(query)`` so ``parse_sql(str(q)) == q``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.sqlengine.types import Aggregate, Operator, SortDirection

__all__ = ["Condition", "Not", "And", "Or", "Having", "OrderBy", "Query"]


def _format_value(value) -> str:
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, (int, float)):
        if isinstance(value, float) and value.is_integer():
            return str(int(value))
        return str(value)
    return f'"{value}"'


def _canonical_value(value) -> str:
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return _format_value(value)
    text = str(value).strip().lower()
    # Numeric strings compare equal to their numeric form.
    try:
        return _format_value(float(text))
    except ValueError:
        return text


@dataclass(frozen=True)
class Condition:
    """One WHERE condition: ``column operator value``."""

    column: str
    operator: Operator
    value: object

    def to_sql(self) -> str:
        return f"{self.column} {self.operator.value} {_format_value(self.value)}"

    def canonical(self) -> tuple[str, str, str]:
        return (self.column.strip().lower(), self.operator.value,
                _canonical_value(self.value))


@dataclass(frozen=True)
class Not:
    """Negation of a WHERE expression."""

    operand: object


@dataclass(frozen=True)
class And:
    """Conjunction of two or more WHERE expressions."""

    items: tuple

    def __post_init__(self) -> None:
        object.__setattr__(self, "items", tuple(self.items))
        if not self.items:
            raise ValueError("And requires at least one operand")


@dataclass(frozen=True)
class Or:
    """Disjunction of two or more WHERE expressions."""

    items: tuple

    def __post_init__(self) -> None:
        object.__setattr__(self, "items", tuple(self.items))
        if not self.items:
            raise ValueError("Or requires at least one operand")


@dataclass(frozen=True)
class Having:
    """A ``HAVING agg(column) op value`` group filter."""

    aggregate: Aggregate
    column: str
    operator: Operator
    value: object

    def to_sql(self) -> str:
        return (f"{self.aggregate.value}({self.column}) "
                f"{self.operator.value} {_format_value(self.value)}")

    def canonical(self) -> tuple:
        return (self.aggregate.value, self.column.strip().lower(),
                self.operator.value, _canonical_value(self.value))


@dataclass(frozen=True)
class OrderBy:
    """An ``ORDER BY column [ASC|DESC]`` clause."""

    column: str
    direction: SortDirection = SortDirection.ASC

    @property
    def descending(self) -> bool:
        return self.direction is SortDirection.DESC

    def to_sql(self) -> str:
        if self.direction is SortDirection.DESC:
            return f"ORDER BY {self.column} DESC"
        return f"ORDER BY {self.column}"


# Rendering precedence: a child is parenthesized iff it binds *looser*
# than its parent.  OR < AND < NOT < leaf.
_PREC_OR, _PREC_AND, _PREC_NOT, _PREC_LEAF = 1, 2, 3, 4


def _normalize_where(expr):
    """Flatten nested same-type AND/OR and collapse single-item groups.

    Normalization makes the AST construction-path independent: the tree
    the parser builds from ``to_sql()`` output equals the original.
    """
    if isinstance(expr, Condition):
        return expr
    if isinstance(expr, Not):
        return Not(_normalize_where(expr.operand))
    if isinstance(expr, (And, Or)):
        items: list = []
        for item in expr.items:
            child = _normalize_where(item)
            if type(child) is type(expr):
                items.extend(child.items)
            else:
                items.append(child)
        if len(items) == 1:
            return items[0]
        return type(expr)(tuple(items))
    raise TypeError(f"not a WHERE expression: {expr!r}")


def _render_where(expr, parent_prec: int = 0) -> str:
    if isinstance(expr, Condition):
        return expr.to_sql()
    if isinstance(expr, Not):
        text = f"NOT {_render_where(expr.operand, _PREC_NOT)}"
        prec = _PREC_NOT
    elif isinstance(expr, And):
        text = " AND ".join(_render_where(i, _PREC_AND) for i in expr.items)
        prec = _PREC_AND
    elif isinstance(expr, Or):
        text = " OR ".join(_render_where(i, _PREC_OR) for i in expr.items)
        prec = _PREC_OR
    else:
        raise TypeError(f"not a WHERE expression: {expr!r}")
    return f"({text})" if prec < parent_prec else text


def _where_tokens(expr, parent_prec: int = 0) -> list[str]:
    """Lower-cased logical-form tokens, parenthesized like ``to_sql``."""
    if isinstance(expr, Condition):
        return list(expr.canonical())
    if isinstance(expr, Not):
        out = ["not"] + _where_tokens(expr.operand, _PREC_NOT)
        prec = _PREC_NOT
    elif isinstance(expr, And):
        out = []
        for i, item in enumerate(expr.items):
            if i:
                out.append("and")
            out.extend(_where_tokens(item, _PREC_AND))
        prec = _PREC_AND
    else:
        out = []
        for i, item in enumerate(expr.items):
            if i:
                out.append("or")
            out.extend(_where_tokens(item, _PREC_OR))
        prec = _PREC_OR
    return ["("] + out + [")"] if prec < parent_prec else out


def _canonical_where(expr) -> tuple:
    """Tagged canonical tuple; operands sorted only inside AND/OR."""
    if isinstance(expr, Condition):
        return ("cond",) + expr.canonical()
    if isinstance(expr, Not):
        return ("not", _canonical_where(expr.operand))
    tag = "and" if isinstance(expr, And) else "or"
    return (tag, tuple(sorted(_canonical_where(i) for i in expr.items)))


def _where_leaves(expr) -> list[Condition]:
    if isinstance(expr, Condition):
        return [expr]
    if isinstance(expr, Not):
        return _where_leaves(expr.operand)
    out: list[Condition] = []
    for item in expr.items:
        out.extend(_where_leaves(item))
    return out


@dataclass
class Query:
    """A WikiSQL-sketch query, optionally using the extended grammar."""

    select_column: str
    aggregate: Aggregate = Aggregate.NONE
    conditions: list[Condition] = field(default_factory=list)
    where: object | None = None
    group_by: str | None = None
    having: Having | None = None
    order_by: OrderBy | None = None
    limit: int | None = None

    def __post_init__(self) -> None:
        if self.where is not None:
            if self.conditions:
                raise ValueError(
                    "pass either `conditions` or `where`, not both")
            expr = _normalize_where(self.where)
            if isinstance(expr, Condition):
                self.conditions = [expr]
                self.where = None
            elif isinstance(expr, And) and all(
                    isinstance(i, Condition) for i in expr.items):
                self.conditions = list(expr.items)
                self.where = None
            else:
                self.where = expr
        if self.limit is not None:
            self.limit = int(self.limit)

    # ------------------------------------------------------------------
    # Structure accessors
    # ------------------------------------------------------------------

    def where_expr(self):
        """The effective WHERE expression tree (``None`` if no WHERE)."""
        if self.where is not None:
            return self.where
        if not self.conditions:
            return None
        if len(self.conditions) == 1:
            return self.conditions[0]
        return And(tuple(self.conditions))

    def where_leaves(self) -> list[Condition]:
        """All leaf conditions, left to right (sketch: ``conditions``)."""
        expr = self.where_expr()
        return [] if expr is None else _where_leaves(expr)

    @property
    def is_extended(self) -> bool:
        """Whether the query uses any clause beyond the WikiSQL sketch."""
        return (self.where is not None or self.group_by is not None
                or self.having is not None or self.order_by is not None
                or self.limit is not None)

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------

    def to_sql(self) -> str:
        """Render as SQL text (the paper's single-table dialect omits FROM)."""
        if self.aggregate is Aggregate.NONE:
            select = f"SELECT {self.select_column}"
        else:
            select = f"SELECT {self.aggregate.value}({self.select_column})"
        parts = [select]
        where = self.where_expr()
        if where is not None:
            parts.append(f"WHERE {_render_where(where)}")
        if self.group_by is not None:
            parts.append(f"GROUP BY {self.group_by}")
        if self.having is not None:
            parts.append(f"HAVING {self.having.to_sql()}")
        if self.order_by is not None:
            parts.append(self.order_by.to_sql())
        if self.limit is not None:
            parts.append(f"LIMIT {self.limit}")
        return " ".join(parts)

    def __str__(self) -> str:
        return self.to_sql()

    def tokens(self) -> list[str]:
        """Logical-form token sequence (condition order preserved)."""
        out = ["select"]
        if self.aggregate is not Aggregate.NONE:
            out.append(self.aggregate.value.lower())
        out.append(self.select_column.strip().lower())
        where = self.where_expr()
        if where is not None:
            out.append("where")
            out.extend(_where_tokens(where))
        if self.group_by is not None:
            out.extend(["group", "by", self.group_by.strip().lower()])
        if self.having is not None:
            agg, col, op, val = self.having.canonical()
            out.extend(["having", agg.lower(), col, op, val])
        if self.order_by is not None:
            out.extend(["order", "by", self.order_by.column.strip().lower(),
                        self.order_by.direction.value.lower()])
        if self.limit is not None:
            out.extend(["limit", str(self.limit)])
        return out

    def canonical(self) -> tuple:
        """Order-insensitive canonical form used for query-match accuracy.

        Condition order is normalized only within commutative groups
        (the sketch's ``conditions`` conjunction, and each AND/OR node of
        a richer tree); a sketch query keeps the three-item tuple,
        extended clauses append tagged entries.
        """
        base = (
            self.aggregate.value,
            self.select_column.strip().lower(),
            tuple(sorted(c.canonical() for c in self.conditions)),
        )
        if not self.is_extended:
            return base
        extras: list[tuple] = []
        if self.where is not None:
            extras.append(("where", _canonical_where(self.where)))
        if self.group_by is not None:
            extras.append(("group_by", self.group_by.strip().lower()))
        if self.having is not None:
            extras.append(("having", self.having.canonical()))
        if self.order_by is not None:
            extras.append(("order_by", self.order_by.column.strip().lower(),
                           self.order_by.direction.value))
        if self.limit is not None:
            extras.append(("limit", self.limit))
        return base + tuple(extras)

    # ------------------------------------------------------------------
    # Comparisons
    # ------------------------------------------------------------------

    def logical_form_equal(self, other: "Query") -> bool:
        """Token-by-token equality (condition order matters) — Acc_lf."""
        return self.tokens() == other.tokens()

    def query_match_equal(self, other: "Query") -> bool:
        """Canonical equality (condition order ignored) — Acc_qm."""
        return self.canonical() == other.canonical()

    def where_canonical(self) -> tuple:
        """Canonical (column, value) pairs of the WHERE clause only.

        Used for the Section VII-A.1 mention-detection metric, which
        scores ``$COND_COL`` / ``$COND_VAL`` agreement.
        """
        return tuple(sorted((c.canonical()[0], c.canonical()[2])
                            for c in self.where_leaves()))
