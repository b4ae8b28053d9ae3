"""Content fingerprints for tables.

A fingerprint is a hex digest over a table's *content* — ordered column
names, column types, and every cell value in row order.  Two tables with
identical content hash identically regardless of object identity or the
table's name, and any change to a column name, a column type, or a cell
value produces a different digest.  The digest is computed with
:mod:`hashlib`, so it is stable across processes (unlike the built-in
``hash()``, which is salted per interpreter).

The serving layer computes it once per request and keys its translation
cache, cluster routing and the annotator's per-table
:class:`~repro.core.schema.SchemaEncoding` cache on it, so recreating an
equal table (e.g. after reloading a dataset) still hits warm entries
while any schema or data edit is an automatic invalidation.
"""

from __future__ import annotations

import hashlib

from repro.sqlengine.table import Table

__all__ = ["table_fingerprint"]


def _field(data: bytes) -> bytes:
    # Length-prefix every field so concatenations cannot collide
    # ("ab"+"c" vs "a"+"bc") and type tags stay unambiguous.
    return b"%d\x00%s" % (len(data), data)


#: Length-prefixed type-name field per cell type, so 1, 1.0, "1", and
#: True all hash apart; built once per type.
_TYPE_TAGS: dict[type, bytes] = {}


def table_fingerprint(table: Table) -> str:
    """Hex digest of a table's columns, types, and rows.

    The table *name* is deliberately excluded: annotation and
    translation depend only on schema and data, so content-equal tables
    under different names may share cached work.
    """
    parts = [b"schema"]
    for column in table.columns:
        parts += (_field(column.name.encode("utf-8")),
                  _field(column.dtype.value.encode("utf-8")))
    parts.append(b"rows")
    for row in table.rows:
        parts.append(b"row")
        for cell in row:
            tag = _TYPE_TAGS.get(type(cell))
            if tag is None:
                tag = _TYPE_TAGS[type(cell)] = _field(
                    type(cell).__name__.encode("utf-8"))
            parts += (tag, _field(str(cell).encode("utf-8")))
    return hashlib.sha256(b"".join(parts)).hexdigest()
