"""Percentiles, sample counts and run-to-run spread for the benchmark.

Timings are reported as a median and a tail percentile together with
the number of samples beyond that percentile (a tail read from fewer
than ten samples is not a tail).  Sets of runs are summarised by their
quartiles exactly as ``statistics.quantiles(values, n=4)`` gives them,
so ``run.py compare`` and any external check agree on the spread.
"""

from __future__ import annotations

import math
import statistics

__all__ = ["percentile", "beyond", "quartiles", "spread"]


def percentile(samples, q: float) -> float:
    """The ``q``-th percentile (0..100) by linear interpolation.

    Matches ``numpy.percentile``'s default method; raises on an empty
    sample so a missing measurement can never read as zero.
    """
    ordered = sorted(samples)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile {q} outside 0..100")
    rank = (len(ordered) - 1) * q / 100.0
    lo = math.floor(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def beyond(samples, q: float) -> int:
    """How many samples lie strictly above the ``q``-th percentile."""
    cut = percentile(samples, q)
    return sum(1 for sample in samples if sample > cut)


def quartiles(values) -> tuple[float, float, float]:
    """``(q1, median, q3)`` of a set of run values.

    One value is its own quartiles; two or more use
    ``statistics.quantiles(values, n=4)`` (the exclusive method).
    """
    values = list(values)
    if not values:
        raise ValueError("quartiles of an empty set")
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def spread(values) -> float:
    """Distance between the quartiles as a share of the median."""
    q1, median, q3 = quartiles(values)
    if median == 0:
        return 0.0 if q1 == q3 else math.inf
    return (q3 - q1) / abs(median)
