"""Small statistics helpers shared by the runner, the workloads and the tests."""

from __future__ import annotations

import math
import statistics

__all__ = [
    "PERCENTILES",
    "quartile_spread",
    "spearman",
    "tail_percentile",
]

PERCENTILES = (99.9, 99.0, 97.5, 95.0, 90.0, 75.0, 50.0)


def tail_percentile(n: int, *, beyond: int = 10) -> float | None:
    """Highest of :data:`PERCENTILES` with at least ``beyond`` samples above it.

    ``None`` when even the median has fewer than ``beyond`` samples
    beyond it (fewer than ``2 * beyond`` samples in all).
    """
    for p in PERCENTILES:
        if n * (100.0 - p) / 100.0 >= beyond - 1e-9:
            return p
    return None


def quartile_spread(values: list[float]) -> float:
    """Distance between the first and third quartile, as a share of the median.

    Quartiles as ``statistics.quantiles(values, n=4)`` gives them.
    """
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / abs(median) if median else math.inf


def _ranks(values: list[float]) -> list[float]:
    order = sorted(range(len(values)), key=values.__getitem__)
    ranks = [0.0] * len(values)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
            j += 1
        for k in range(i, j + 1):
            ranks[order[k]] = (i + j) / 2.0  # ties share their mean rank
        i = j + 1
    return ranks


def spearman(x: list[float], y: list[float]) -> float:
    """Spearman rank correlation (Pearson correlation of the ranks)."""
    if len(x) != len(y) or len(x) < 2:
        raise ValueError("spearman needs two samples of equal length >= 2")
    rx, ry = _ranks(x), _ranks(y)
    mx, my = statistics.fmean(rx), statistics.fmean(ry)
    cov = sum((a - mx) * (b - my) for a, b in zip(rx, ry))
    vx = sum((a - mx) ** 2 for a in rx)
    vy = sum((b - my) ** 2 for b in ry)
    return cov / math.sqrt(vx * vy) if vx and vy else 0.0
