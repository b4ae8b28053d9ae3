"""The correctness gate run, untimed, after every workload.

Three checks, each against something the service did not compute:

* **execution accuracy** — the served SQL text is parsed and executed by
  :mod:`repro.sqlengine` and its result compared with the gold query's
  result on the same table;
* **a differential** — up to 64 served requests, spread over the run,
  are translated again by a separately loaded model through
  ``NLIDB.translate``, the in-process sequential reference; any SQL
  difference is a serving bug;
* **error classification** — a request whose SQL could not be recovered
  (``RecoveryError``) got a wrong answer, not a failure; a degraded,
  failed, lost or inconsistent request is an error.

A SQL mismatch or a request whose future never resolved makes the run
fail outright.
"""

from __future__ import annotations

from repro.errors import ReproError
from repro.sqlengine import execute, parse_sql, results_equal

__all__ = ["ANSWERED", "WRONG", "ERROR", "UNRESOLVED", "classify",
           "exec_correct", "gate"]

ANSWERED = "answered"
WRONG = "wrong"
ERROR = "error"
UNRESOLVED = "unresolved"

DIFFERENTIAL = 64


def classify(outcome: tuple) -> str:
    """Sort one ``(status, sql, error type)`` outcome into a class."""
    status, sql, error = outcome
    if status == "ok" and sql is not None:
        return ANSWERED
    if status == "failed" and error == "RecoveryError":
        return WRONG
    if status == "unresolved":
        return UNRESOLVED
    return ERROR


def exec_correct(sql: str, request) -> bool:
    """Whether ``sql`` returns the gold query's result on the table."""
    try:
        predicted = execute(parse_sql(sql), request.table)
    except ReproError:
        return False
    return results_equal(predicted, execute(request.gold, request.table))


def _spread_indices(n: int, k: int) -> list[int]:
    if n <= k:
        return list(range(n))
    return sorted({round(i * (n - 1) / (k - 1)) for i in range(k)})


def gate(reference, requests, order, outcomes,
         differential: int = DIFFERENTIAL) -> dict:
    """Check one pass; returns counts, accuracy and fatal problems.

    ``reference`` is a fitted NLIDB that did not serve the traffic;
    ``order[i]`` is the request index of ``outcomes[i]``.  Accuracy is
    over distinct requests, each of which must have been served the
    same way every time it was sent.
    """
    classes = {ANSWERED: 0, WRONG: 0, ERROR: 0, UNRESOLVED: 0}
    first: dict[int, tuple] = {}
    inconsistent = 0
    for index, served in zip(order, outcomes):
        classes[classify(served)] += 1
        seen = first.setdefault(index, served)
        if seen != served:
            inconsistent += 1

    correct = sum(1 for index, served in first.items()
                  if classify(served) == ANSWERED
                  and exec_correct(served[1], requests[index]))

    distinct = sorted(first)
    mismatches = []
    for index in (distinct[i] for i in _spread_indices(len(distinct),
                                                       differential)):
        request = requests[index]
        translation = reference.translate(list(request.question),
                                          request.table)
        expected = (translation.query.to_sql()
                    if translation.query is not None else None)
        if first[index][1] != expected:
            mismatches.append({"question": " ".join(request.question),
                               "served": first[index][1],
                               "expected": expected})

    attempted = len(outcomes)
    errors = (classes[ERROR] + classes[UNRESOLVED] + inconsistent
              + len(mismatches))
    fatal = []
    if mismatches:
        fatal.append(f"{len(mismatches)} served SQL differ from "
                     "NLIDB.translate")
    if classes[UNRESOLVED]:
        fatal.append(f"{classes[UNRESOLVED]} requests never resolved")
    if inconsistent:
        fatal.append(f"{inconsistent} repeats served differently")
    return {
        "attempted": attempted,
        "distinct": len(first),
        "answered": classes[ANSWERED],
        "recovery_errors": classes[WRONG],
        "errors": errors,
        "unresolved": classes[UNRESOLVED],
        "inconsistent": inconsistent,
        "exec_correct": correct,
        "exec_accuracy": correct / len(first) if first else 0.0,
        "error_rate": errors / attempted if attempted else 0.0,
        "differential_checked": min(len(distinct), differential),
        "mismatches": mismatches,
        "fatal": fatal,
    }
