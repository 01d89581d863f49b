"""Order statistics the benchmark reports: medians and tail percentiles."""

from __future__ import annotations

import math
import statistics
from typing import Sequence

#: A percentile is reported only when at least this many samples lie beyond it.
MIN_TAIL_SAMPLES = 10


def median(values: Sequence[float]) -> float:
    """The median of a non-empty sample."""
    if not values:
        raise ValueError("median of an empty sample")
    return float(statistics.median(values))


def percentile(values: Sequence[float], q: float) -> float:
    """The nearest-rank ``q``-th percentile (0 < q <= 100) of a sample.

    Nearest rank returns an observed value: the smallest sample with at
    least ``q`` percent of the sample at or below it.
    """
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0 < q <= 100:
        raise ValueError(f"percentile must be in (0, 100], got {q}")
    ordered = sorted(values)
    rank = math.ceil(q / 100 * len(ordered))
    return float(ordered[max(rank, 1) - 1])


def p90(values: Sequence[float]) -> float:
    """The 90th percentile, refused unless ten samples lie beyond it."""
    if len(values) < 10 * MIN_TAIL_SAMPLES:
        raise ValueError(
            f"p90 needs at least {10 * MIN_TAIL_SAMPLES} samples, got {len(values)}"
        )
    return percentile(values, 90)
