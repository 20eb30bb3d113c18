"""Order statistics used by the benchmark report."""

from __future__ import annotations

import math
import statistics

MIN_BEYOND = 10  # samples that must lie beyond a reported tail percentile


def nearest_rank(sorted_values: list[float], pct: float) -> float:
    """The pct-th percentile by the nearest-rank rule."""
    if not sorted_values:
        raise ValueError("no samples")
    rank = max(1, math.ceil(pct / 100 * len(sorted_values)))
    return sorted_values[rank - 1]


def tail_percentile(n: int, cap: int = 95) -> int | None:
    """Highest whole percentile <= cap with at least MIN_BEYOND samples beyond it.

    Beyond means ranked above the nearest-rank position of the percentile.
    None when even the median leaves fewer than MIN_BEYOND samples above it.
    """
    for pct in range(cap, 49, -1):
        if n - max(1, math.ceil(pct / 100 * n)) >= MIN_BEYOND:
            return pct
    return None


def latency_summary(seconds: list[float]) -> dict:
    """Median and tail latency in ms, with the tail percentile used and the count."""
    values = sorted(s * 1e3 for s in seconds)
    n = len(values)
    if not n:
        return {"n": 0, "p50_ms": 0.0, "tail_pct": None, "tail_ms": 0.0}
    pct = tail_percentile(n)
    tail = nearest_rank(values, pct) if pct is not None else values[-1]
    return {"n": n, "p50_ms": statistics.median(values), "tail_pct": pct, "tail_ms": tail}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """First quartile, median and third quartile, as statistics.quantiles gives them."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3
