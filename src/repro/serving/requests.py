"""Request/response shapes for the serving layer.

A :class:`TranslationRequest` names one unit of work — a question
against a table at some beam width.  ``translate_batch`` also accepts
plain ``(question, table)`` / ``(question, table, beam_width)`` tuples;
:func:`as_request` normalizes either form.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ReproError
from repro.sqlengine import Table, table_fingerprint
from repro.text import tokenize

__all__ = ["TranslationRequest", "as_request", "normalize_question"]


def normalize_question(question: str | list[str] | tuple[str, ...],
                       ) -> tuple[str, ...]:
    """Canonical token tuple of a question (cache-key form).

    A raw string and its token list normalize identically, so
    ``service.translate("max speed ?", t)`` hits the entry warmed by
    ``service.translate(["max", "speed", "?"], t)`` and vice versa.
    """
    if isinstance(question, str):
        return tuple(tokenize(question))
    return tuple(question)


@dataclass(frozen=True)
class TranslationRequest:
    """One serving request.

    ``question`` is normalized to its canonical token tuple on
    construction (a raw string or token list is accepted), so a request
    is always hashable, immutable cache-key material and two requests
    for the same question compare equal regardless of input form.

    ``beam_width=None`` means the model's configured default; requests
    differing only in an *explicit vs defaulted* equal beam width still
    share a cache entry (the service resolves the width before keying).
    """

    question: tuple[str, ...]
    table: Table
    beam_width: int | None = None
    _fingerprint: str | None = field(default=None, init=False, repr=False,
                                     compare=False)

    def __post_init__(self) -> None:
        # A frozen dataclass holding a raw list would be unhashable and
        # silently mutable through the list; normalize in place.
        object.__setattr__(self, "question",
                           normalize_question(self.question))

    @property
    def fingerprint(self) -> str:
        """The table's content fingerprint, computed once per request
        and reused by every cache and router the request meets."""
        fingerprint = self._fingerprint
        if fingerprint is None:
            fingerprint = table_fingerprint(self.table)
            object.__setattr__(self, "_fingerprint", fingerprint)
        return fingerprint

    def __hash__(self) -> int:
        # Table is a mutable dataclass (no __hash__); hash its *content*
        # fingerprint instead.  Equal tables have equal fingerprints, so
        # the eq/hash contract holds.
        return hash((self.question, self.fingerprint, self.beam_width))


def as_request(item) -> TranslationRequest:
    """Coerce a request-like item into a :class:`TranslationRequest`."""
    if isinstance(item, TranslationRequest):
        return item
    if isinstance(item, (tuple, list)) and len(item) in (2, 3):
        question, table = item[0], item[1]
        beam_width = item[2] if len(item) == 3 else None
        if isinstance(table, Table):
            return TranslationRequest(question=question, table=table,
                                      beam_width=beam_width)
    raise ReproError(
        f"cannot interpret {item!r} as a translation request; expected "
        "TranslationRequest or (question, table[, beam_width])")
