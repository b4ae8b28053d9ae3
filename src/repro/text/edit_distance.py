"""Edit (Levenshtein) distance and derived similarity.

Used by the mention matcher for the *context-free* cases the paper
resolves with string distances (Section III, footnote 1).
"""

from __future__ import annotations

__all__ = ["levenshtein", "normalized_edit_similarity"]


def levenshtein(a: str, b: str, max_distance: int | None = None) -> int:
    """Minimum number of insert/delete/substitute operations a → b.

    With ``max_distance`` set, the result is exact when it is at most
    ``max_distance`` and ``max_distance + 1`` otherwise, i.e.
    ``min(levenshtein(a, b), max_distance + 1)``.  That bound lets the
    DP fill only the diagonal band ``|i - j| <= max_distance`` and stop
    as soon as a whole row exceeds it.
    """
    if a == b:
        return 0
    if max_distance is not None:
        return _bounded(a, b, max_distance)
    if not a:
        return len(b)
    if not b:
        return len(a)
    if len(a) < len(b):
        a, b = b, a
    previous = list(range(len(b) + 1))
    for i, ch_a in enumerate(a, start=1):
        current = [i]
        for j, ch_b in enumerate(b, start=1):
            cost = 0 if ch_a == ch_b else 1
            current.append(min(previous[j] + 1,      # deletion
                               current[j - 1] + 1,   # insertion
                               previous[j - 1] + cost))  # substitution
        previous = current
    return previous[-1]


def _bounded(a: str, b: str, k: int) -> int:
    """Banded DP for :func:`levenshtein` with ``max_distance=k``.

    Every cell is capped at ``k + 1``: capping commutes with the DP's
    ``min`` and ``+1``, and a cell off the band is at least its offset
    ``|i - j| > k`` from the diagonal, so it is stored as the cap.  The
    distance is at least the minimum of any row, which gives the early
    exit.
    """
    if k < 0:
        raise ValueError("max_distance must be >= 0")
    cap = k + 1
    if abs(len(a) - len(b)) > k:
        return cap
    if not a or not b:
        return max(len(a), len(b))
    m = len(b)
    previous = [j if j <= k else cap for j in range(m + 1)]
    for i, ch_a in enumerate(a, start=1):
        lo = i - k if i > k else 1
        hi = i + k if i + k < m else m
        current = [cap] * (m + 1)
        row_min = current[lo - 1] = i if (lo == 1 and i <= k) else cap
        for j in range(lo, hi + 1):
            value = previous[j - 1] + (ch_a != b[j - 1])
            deletion = previous[j] + 1
            if deletion < value:
                value = deletion
            insertion = current[j - 1] + 1
            if insertion < value:
                value = insertion
            if value > cap:
                value = cap
            current[j] = value
            if value < row_min:
                row_min = value
        if row_min > k:
            return cap
        previous = current
    return previous[m]


def normalized_edit_similarity(a: str, b: str) -> float:
    """1 − distance/max_len, in ``[0, 1]``; 1.0 means identical strings."""
    if not a and not b:
        return 1.0
    longest = max(len(a), len(b))
    return 1.0 - levenshtein(a, b) / longest
