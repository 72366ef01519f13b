"""Order statistics shared by the benchmark and its steadiness report."""

from __future__ import annotations

import statistics

#: Percentiles considered for a tail figure, highest last.
TAIL_PERCENTILES = (90.0, 99.0, 99.9)


def quartiles(values) -> "tuple[float, float, float]":
    """(Q1, median, Q3) as ``statistics.quantiles(values, n=4)`` gives them.

    One value is its own quartiles; ``statistics.quantiles`` needs two.
    """
    values = list(values)
    if not values:
        raise ValueError("quartiles of no values")
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def tail_percentile(count: int) -> "float | None":
    """The highest percentile with at least ten samples beyond it.

    With *count* samples, percentile *p* has ``count * (1 - p/100)``
    samples above it; a tail figure with fewer than ten is one or two
    outliers, not a percentile.  None when even p90 lacks ten.
    """
    best = None
    for p in TAIL_PERCENTILES:
        if count * (100.0 - p) / 100.0 >= 10.0 - 1e-9:
            best = p
    return best


def percentile(values, p: float) -> float:
    """Linear-interpolated percentile *p* (0–100) of *values*."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    rank = (len(ordered) - 1) * p / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def steadiness_row(values, bound: "float | None") -> "dict[str, object]":
    """Median, quartiles, sample count and spread; flags spread > bound."""
    q1, median, q3 = quartiles(values)
    spread = (q3 - q1) / median if median else 0.0
    return {
        "n": len(values),
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": spread,
        "bound": bound,
        "over_bound": bound is not None and spread > bound,
    }


def median_shift(first, second, better: str) -> float:
    """How much worse the second set's median is, as a share of the first's.

    Positive means worse: higher for a lower-is-better metric, lower
    for a higher-is-better one.
    """
    m1 = statistics.median(first)
    m2 = statistics.median(second)
    if not m1:
        return 0.0
    change = (m2 - m1) / m1
    return change if better == "lower" else -change
