"""Statistics the suite reports with: percentiles chosen by sample count,
quartile spread over repeated runs, interval unions (the basis of span self
time), histogram quantiles and a seeded Zipf sampler.

Pure Python, no dependency on the program under test.
"""

from __future__ import annotations

import bisect
import random
import statistics
from typing import Iterable, List, Sequence, Tuple

__all__ = ["percentile", "supported_tail", "quartiles", "spread",
           "union_length", "bucket_quantile", "ZipfSampler", "TAIL_LADDER",
           "MIN_SAMPLES_BEYOND"]

#: Candidate tail percentiles, lowest first.
TAIL_LADDER: Tuple[float, ...] = (0.90, 0.95, 0.99, 0.999)

#: A percentile is reported only with at least this many samples beyond it.
MIN_SAMPLES_BEYOND = 10


def percentile(ordered: Sequence[float], q: float) -> float:
    """The ``q`` quantile (0..1) of an ascending sequence, linearly interpolated."""
    if not ordered:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q must be in [0, 1], got {q}")
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def supported_tail(count: int) -> float:
    """The highest ladder percentile with >= ``MIN_SAMPLES_BEYOND`` samples beyond it.

    Falls back to the median when even the lowest rung has too few.
    """
    best = 0.5
    for q in TAIL_LADDER:
        # rounded: 100 * (1 - 0.9) is 9.999999999999998 in binary floating point
        if round(count * (1.0 - q), 9) >= MIN_SAMPLES_BEYOND:
            best = q
    return best


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(first quartile, median, third quartile)`` over repeated runs.

    Uses :func:`statistics.quantiles` with ``n=4`` — the same rule the
    acceptance check applies.  A single value is its own three quartiles.
    """
    if not values:
        raise ValueError("quartiles of an empty sample")
    if len(values) == 1:
        return (values[0], values[0], values[0])
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q1, q2, q3)


def spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median (0 for a zero median)."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else 0.0


def union_length(intervals: Iterable[Tuple[float, float]], start: float = float("-inf"),
                 end: float = float("inf")) -> float:
    """Length of the union of ``intervals``, clipped to ``[start, end]``."""
    covered = 0.0
    cursor = start
    for low, high in sorted(intervals):
        low, high = max(low, cursor), min(high, end)
        if high > low:
            covered += high - low
            cursor = high
    return covered


def bucket_quantile(buckets: Sequence[Tuple[float, float]], q: float) -> float:
    """The ``q`` quantile of a cumulative histogram, interpolated inside its bucket.

    ``buckets`` are ``(upper bound, cumulative count)`` pairs in ascending
    order, the last bound usually ``inf``; a quantile that falls in the
    unbounded bucket is reported as the highest finite bound.  Returns 0 for
    an empty histogram.
    """
    total = buckets[-1][1] if buckets else 0.0
    if total <= 0:
        return 0.0
    rank = q * total
    lower_bound, lower_count = 0.0, 0.0
    for bound, cumulative in buckets:
        if cumulative >= rank:
            if bound == float("inf"):
                return lower_bound
            share = (rank - lower_count) / (cumulative - lower_count)
            return lower_bound + (bound - lower_bound) * share
        lower_bound, lower_count = bound, cumulative
    return lower_bound


class ZipfSampler:
    """Ranks ``0..n-1`` drawn with probability proportional to ``1/(rank+1)^s``.

    Deterministic under its seed: two samplers built with equal arguments
    produce equal streams.
    """

    def __init__(self, n: int, s: float, seed: int):
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        if s <= 0:
            raise ValueError(f"s must be positive, got {s}")
        self._random = random.Random(seed)
        self._cumulative: List[float] = []
        total = 0.0
        for rank in range(n):
            total += 1.0 / (rank + 1) ** s
            self._cumulative.append(total)
        self._total = total

    def draw(self) -> int:
        return bisect.bisect_left(self._cumulative, self._random.random() * self._total)

    def draws(self, count: int) -> List[int]:
        return [self.draw() for _ in range(count)]
