"""In-memory relational tables and databases.

A :class:`Table` holds a schema (ordered, typed columns) and rows.  It is
the substrate against which synthesized queries are executed for the
paper's *execution accuracy* metric, and the source of the *database
statistics* metadata (Section II) consumed by the value-detection
classifier.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import SchemaError
from repro.sqlengine.types import DataType

__all__ = ["Column", "Table", "Database"]


@dataclass(frozen=True)
class Column:
    """A named, typed table column."""

    name: str
    dtype: DataType = DataType.TEXT

    def __post_init__(self) -> None:
        if not self.name or not self.name.strip():
            raise SchemaError("column name must be non-empty")


@dataclass
class Table:
    """An ordered-schema table: a value whose content changes only by
    attribute assignment or :meth:`insert`.

    ``columns`` and ``rows`` are stored as tuples (a list passed in, or
    assigned later, is copied into one), and cells must be immutable
    scalars (``str``, ``int``, ``float``, ``bool``, ``None``).  So an
    in-place edit such as ``table.rows[i] = row`` or
    ``table.rows.append(row)`` raises instead of changing the content
    behind the back of anything that remembers it.  Every assignment to
    ``name``, ``columns`` or ``rows`` — :meth:`insert` included, which
    rebinds ``rows`` — drops the remembered content fingerprint, so
    :func:`~repro.sqlengine.table_fingerprint` hashes each table value
    once.

    Parameters
    ----------
    name:
        Table identifier (unique within a :class:`Database`).
    columns:
        Ordered column definitions; order defines the ``c_i`` indices the
        annotation layer uses.
    rows:
        Row tuples aligned with ``columns``.
    """

    name: str
    columns: tuple[Column, ...]
    rows: tuple[tuple, ...] = ()
    # The content fingerprint, set by ``table_fingerprint`` on first
    # use and dropped by ``__setattr__`` whenever the content may change.
    _fingerprint: str | None = field(default=None, init=False,
                                     compare=False, repr=False)

    def __setattr__(self, attr: str, value) -> None:
        if attr == "columns":
            value = tuple(value)
        elif attr == "rows":
            value = tuple(map(tuple, value))
        if attr in ("name", "columns", "rows"):
            object.__setattr__(self, "_fingerprint", None)
        object.__setattr__(self, attr, value)

    def __post_init__(self) -> None:
        names = [c.name.lower() for c in self.columns]
        if len(set(names)) != len(names):
            raise SchemaError(f"duplicate column names in table {self.name!r}")
        for row in self.rows:
            if len(row) != len(self.columns):
                raise SchemaError(
                    f"row arity {len(row)} != schema arity {len(self.columns)} "
                    f"in table {self.name!r}")

    # ------------------------------------------------------------------
    # Schema access
    # ------------------------------------------------------------------

    @property
    def column_names(self) -> list[str]:
        """Ordered column names."""
        return [c.name for c in self.columns]

    def column_index(self, name: str) -> int:
        """Case-insensitive column lookup; raises ``SchemaError`` if absent."""
        target = name.strip().lower()
        for i, column in enumerate(self.columns):
            if column.name.lower() == target:
                return i
        raise SchemaError(f"table {self.name!r} has no column {name!r}")

    def column(self, name: str) -> Column:
        """Return the :class:`Column` definition for ``name``."""
        return self.columns[self.column_index(name)]

    def has_column(self, name: str) -> bool:
        """Whether a column with this (case-insensitive) name exists."""
        try:
            self.column_index(name)
        except SchemaError:
            return False
        return True

    # ------------------------------------------------------------------
    # Data access
    # ------------------------------------------------------------------

    def column_values(self, name: str) -> list:
        """All cell values of one column, in row order."""
        idx = self.column_index(name)
        return [row[idx] for row in self.rows]

    def insert(self, row: tuple) -> None:
        """Append one row, validating arity; rebinds ``rows`` to a new
        tuple, which drops the remembered fingerprint."""
        if len(row) != len(self.columns):
            raise SchemaError(
                f"row arity {len(row)} != schema arity {len(self.columns)}")
        self.rows = self.rows + (tuple(row),)

    def __len__(self) -> int:
        return len(self.rows)


@dataclass
class Database:
    """A named collection of tables."""

    name: str = "db"
    tables: dict[str, Table] = field(default_factory=dict)

    def add(self, table: Table) -> None:
        """Register a table; name collisions raise ``SchemaError``."""
        if table.name in self.tables:
            raise SchemaError(f"table {table.name!r} already exists")
        self.tables[table.name] = table

    def get(self, name: str) -> Table:
        """Fetch a table by name; raises ``SchemaError`` if absent."""
        if name not in self.tables:
            raise SchemaError(f"database {self.name!r} has no table {name!r}")
        return self.tables[name]

    def __contains__(self, name: str) -> bool:
        return name in self.tables

    def __len__(self) -> int:
        return len(self.tables)
