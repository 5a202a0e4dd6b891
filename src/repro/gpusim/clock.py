"""Simulated clock with per-category latency/compute accounting.

Every engine op charges a :class:`TimeCharge` to a :class:`SimClock` under a
*category* label ("kernel_values", "subproblem", ...).  Categories feed the
paper's component-breakdown figures (Figures 11 and 12).

Each charge is split into two parts:

- ``latency``: fixed per-op costs (kernel-launch overhead, serial
  dependency chains).  When independent tasks run concurrently these
  overlap, which is exactly why the paper's MP-SVM-level concurrency wins.
- ``compute``: throughput-bound work (FLOPs over peak FLOPS, bytes over
  bandwidth).  Throughput is a shared resource, so concurrent tasks' compute
  parts add up.

The interleaved wave driver (:mod:`repro.core.interleave`) consumes this
split.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from repro.exceptions import ValidationError

__all__ = ["TimeCharge", "SimClock"]


@dataclass(frozen=True)
class TimeCharge:
    """An amount of simulated time, split into latency and compute parts."""

    latency_s: float = 0.0
    compute_s: float = 0.0

    def __post_init__(self) -> None:
        if self.latency_s < 0 or self.compute_s < 0:
            raise ValidationError("time charges must be non-negative")

    @property
    def total_s(self) -> float:
        """Latency plus compute seconds."""
        return self.latency_s + self.compute_s

    def __add__(self, other: "TimeCharge") -> "TimeCharge":
        return TimeCharge(
            self.latency_s + other.latency_s,
            self.compute_s + other.compute_s,
        )

    def scaled(self, factor: float) -> "TimeCharge":
        """This charge repeated ``factor`` times (e.g. per-iteration cost)."""
        if factor < 0:
            raise ValidationError("scale factor must be non-negative")
        return TimeCharge(self.latency_s * factor, self.compute_s * factor)


class SimClock:
    """Accumulates simulated time per category.

    The clock is deliberately dumb: it never advances on its own, only via
    :meth:`charge`.  Wall-clock measurement of the NumPy host code is a
    separate concern handled by pytest-benchmark.
    """

    def __init__(self) -> None:
        self._latency: dict[str, float] = {}
        self._compute: dict[str, float] = {}
        # Straggler multiplier (fault injection): every charge is scaled
        # by this rate at charge time, so a slowed device's entire
        # timeline — ops, transfers, prefetches — stretches uniformly
        # while merges of already-charged clocks stay untouched.
        self._rate = 1.0

    @property
    def rate(self) -> float:
        """Multiplier applied to every incoming charge (1.0 = nominal)."""
        return self._rate

    @rate.setter
    def rate(self, value: float) -> None:
        if value <= 0:
            raise ValidationError(f"clock rate must be positive, got {value}")
        self._rate = float(value)

    # ------------------------------------------------------------------
    # Charging
    # ------------------------------------------------------------------
    def charge(self, category: str, charge: TimeCharge) -> None:
        """Add a charge under ``category``, scaled by the clock's rate."""
        if not category:
            raise ValidationError("category must be a non-empty string")
        self._latency[category] = (
            self._latency.get(category, 0.0) + charge.latency_s * self._rate
        )
        self._compute[category] = (
            self._compute.get(category, 0.0) + charge.compute_s * self._rate
        )

    def merge(self, other: "SimClock") -> None:
        """Fold another clock's charges into this one (category-wise)."""
        for category, seconds in other._latency.items():
            self._latency[category] = self._latency.get(category, 0.0) + seconds
        for category, seconds in other._compute.items():
            self._compute[category] = self._compute.get(category, 0.0) + seconds

    def merge_scaled(self, other: "SimClock", factor: float) -> None:
        """Merge ``other`` with every charge multiplied by ``factor``.

        Used by the wave driver to account concurrency: overlapped latency
        merges with a factor < 1.
        """
        if factor < 0:
            raise ValidationError("scale factor must be non-negative")
        for category, seconds in other._latency.items():
            self._latency[category] = self._latency.get(category, 0.0) + seconds * factor
        for category, seconds in other._compute.items():
            self._compute[category] = self._compute.get(category, 0.0) + seconds * factor

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    @property
    def elapsed_s(self) -> float:
        """Total simulated seconds across all categories."""
        return sum(self._latency.values()) + sum(self._compute.values())

    @property
    def latency_s(self) -> float:
        """Total latency seconds across all categories."""
        return sum(self._latency.values())

    @property
    def compute_s(self) -> float:
        """Total compute seconds across all categories."""
        return sum(self._compute.values())

    def category_seconds(self, category: str) -> float:
        """Total seconds charged under one category."""
        return self._latency.get(category, 0.0) + self._compute.get(category, 0.0)

    def categories(self) -> Iterable[str]:
        """Sorted category names with any charge."""
        return sorted(set(self._latency) | set(self._compute))

    def breakdown(self) -> dict[str, float]:
        """Total seconds per category."""
        return {name: self.category_seconds(name) for name in self.categories()}

    def fraction_breakdown(
        self, *, grouping: Mapping[str, str] | None = None
    ) -> dict[str, float]:
        """Per-category fractions of total time (sums to 1 when non-empty).

        ``grouping`` optionally maps raw category names to coarser labels
        (used to collapse solver categories into the paper's three-way
        training split).
        """
        total = self.elapsed_s
        if total <= 0:
            return {}
        fractions: dict[str, float] = {}
        for name in self.categories():
            label = grouping.get(name, name) if grouping else name
            fractions[label] = fractions.get(label, 0.0) + self.category_seconds(name) / total
        return fractions

    def copy(self) -> "SimClock":
        """An independent copy of the accumulated charges."""
        clone = SimClock()
        clone._latency = dict(self._latency)
        clone._compute = dict(self._compute)
        clone._rate = self._rate
        return clone

    def since(self, earlier: "SimClock") -> "SimClock":
        """Per-category charges accumulated after ``earlier`` was copied.

        ``earlier`` must be a snapshot of this clock's past (every charge
        it holds is still present here); the interleaved wave driver uses
        this to slice one solver round out of a shared timeline.
        """
        delta = SimClock()
        for category, seconds in self._latency.items():
            diff = seconds - earlier._latency.get(category, 0.0)
            if diff > 0:
                delta._latency[category] = diff
        for category, seconds in self._compute.items():
            diff = seconds - earlier._compute.get(category, 0.0)
            if diff > 0:
                delta._compute[category] = diff
        return delta

    def reset(self) -> None:
        """Drop every charge."""
        self._latency.clear()
        self._compute.clear()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SimClock(elapsed={self.elapsed_s:.6f}s, categories={list(self.categories())})"
