"""Order statistics shared by the runner and the tracer."""

from __future__ import annotations

from statistics import median, quantiles

__all__ = ["median", "tail", "upper_quartile"]

TAIL_BEYOND = 10


def tail(values, beyond: int = TAIL_BEYOND) -> tuple[float, float]:
    """The highest nearest-rank percentile that has at least `beyond`
    samples above it, as (value, percentile).  With `beyond` samples or
    fewer no such percentile exists, and the maximum (percentile 100) is
    returned instead."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("tail of an empty sample")
    n = len(ordered)
    rank = n - beyond if n > beyond else n
    return ordered[rank - 1], 100.0 * rank / n


def upper_quartile(values) -> float:
    """The 75th percentile, interpolated between order statistics, so it
    moves continuously as the sample grows."""
    values = list(values)
    if len(values) == 1:
        return values[0]
    return quantiles(values, n=4, method="inclusive")[2]
