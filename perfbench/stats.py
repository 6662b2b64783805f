"""Summary statistics the benchmark reports."""

from __future__ import annotations

import math
import statistics

#: A percentile is reported only with at least this many samples beyond it.
MIN_BEYOND = 10


class TooFewSamples(ValueError):
    """A percentile was asked of too few samples to have a tail behind it."""


def percentile(values, fraction: float) -> tuple[float, int]:
    """Nearest-rank percentile of ``values`` and the sample count.

    The value at rank ``ceil(fraction * n)`` is returned only when at least
    :data:`MIN_BEYOND` samples lie beyond that rank, so a p99 needs 1000
    samples; otherwise :class:`TooFewSamples` is raised.
    """
    ordered = sorted(values)
    count = len(ordered)
    rank = max(1, math.ceil(fraction * count))
    if count - rank < MIN_BEYOND:
        raise TooFewSamples(
            f"p{fraction * 100:g} of {count} samples has only "
            f"{max(0, count - rank)} beyond it; need {MIN_BEYOND}"
        )
    return ordered[rank - 1], count


def median(values) -> float:
    return statistics.median(values)


def spread(values) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2
