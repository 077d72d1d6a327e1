"""Small statistics the benchmark reports."""

from __future__ import annotations

import math
import statistics

__all__ = ["TAIL_PERCENTILES", "MIN_BEYOND", "tail", "spread"]

#: Candidate tail percentiles, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
#: A tail percentile is reported only with at least this many samples
#: beyond it.
MIN_BEYOND = 10


def tail(values: list[float]) -> tuple[float, float, int]:
    """``(value, percentile, samples beyond)`` at the highest percentile
    of :data:`TAIL_PERCENTILES` with at least :data:`MIN_BEYOND` samples
    beyond it (nearest rank).  With too few samples for any, the
    maximum, as percentile 100 with 0 beyond."""
    ordered = sorted(values)
    n = len(ordered)
    for percentile in TAIL_PERCENTILES:
        rank = max(1, math.ceil(percentile / 100.0 * n))
        beyond = n - rank
        if beyond >= MIN_BEYOND:
            return ordered[rank - 1], percentile, beyond
    return (ordered[-1] if ordered else 0.0), 100.0, 0


def spread(values: list[float]) -> dict[str, float]:
    """Median, quartiles and quartile distance over the median, as
    ``statistics.quantiles(values, n=4)`` gives them."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
    }
