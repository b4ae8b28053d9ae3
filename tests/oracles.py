"""Reference implementations kept as test oracles.

Each is the straightforward version a production path replaced; the
differential tests assert the fast path returns exactly what these do.
"""

from __future__ import annotations

import hashlib

from repro.core.mention import MentionCandidate
from repro.sqlengine import Table
from repro.text import tokenize


def _feed(digest, part: str) -> None:
    data = part.encode("utf-8")
    digest.update(str(len(data)).encode("ascii"))
    digest.update(b"\x00")
    digest.update(data)


def table_fingerprint(table: Table) -> str:
    """The field-at-a-time ``sha256`` fingerprint (one update per field)."""
    digest = hashlib.sha256()
    digest.update(b"schema")
    for column in table.columns:
        _feed(digest, column.name)
        _feed(digest, column.dtype.value)
    digest.update(b"rows")
    for row in table.rows:
        digest.update(b"row")
        for cell in row:
            _feed(digest, type(cell).__name__)
            _feed(digest, str(cell))
    return digest.hexdigest()


def numeric_ranges(table: Table) -> dict[str, tuple[float, float]]:
    """Value ranges (with margin) of the all-numeric columns."""
    ranges: dict[str, tuple[float, float]] = {}
    for column in table.columns:
        numbers = []
        for cell in table.column_values(column.name):
            try:
                numbers.append(float(str(cell)))
            except ValueError:
                numbers.clear()
                break
        if numbers:
            lo, hi = min(numbers), max(numbers)
            margin = (hi - lo) * 0.5 + 1.0
            ranges[column.name.lower()] = (lo - margin, hi + margin)
    return ranges


def find_cell_values(tokens: list[str], column: str,
                     cells: list) -> list[MentionCandidate]:
    """Exact cell matches by re-tokenizing and scanning every cell."""
    candidates = []
    seen_spans: set[tuple[int, int]] = set()
    for cell in cells:
        cell_tokens = tokenize(str(cell))
        if not cell_tokens:
            continue
        for i in range(len(tokens) - len(cell_tokens) + 1):
            span = (i, i + len(cell_tokens))
            if span in seen_spans:
                continue
            if tokens[i:span[1]] == cell_tokens:
                seen_spans.add(span)
                candidates.append(MentionCandidate(
                    column, span[0], span[1], 1.0, "exact"))
    return candidates
