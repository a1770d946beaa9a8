"""Head-of-line blocking and fairness metrics for cross-tag scheduling.

The per-port transaction scheduler shares one radio across co-present
tags; whether it does so *fairly* is a measurable property, not a vibe.
This module provides the three instruments the fairness benches report:

* :func:`jains_index` — Jain's fairness index over per-tag allocations:
  ``(Σx)² / (n · Σx²)``, 1.0 for perfectly equal shares, ``1/n`` when a
  single flow takes everything. The classic summary for "did the hot
  tag starve its neighbours".
* :func:`percentile` — nearest-rank percentile over a small sample (the
  bench populations are tags, not requests; linear interpolation over
  eight tags would imply precision the data doesn't have).
* :class:`LatencySummary` — p50/p99/min/max/mean of a latency sample,
  as a dict ready for ``BENCH_*.json`` rows.

Pure functions over sequences; no scheduler imports (the benches join
scheduler telemetry to these instruments themselves).
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional, Sequence, Tuple


def jains_index(allocations: Sequence[float]) -> float:
    """Jain's fairness index ``(Σx)² / (n · Σx²)`` over ``allocations``.

    Defined for non-negative allocations; an empty sample or an
    all-zero sample (nobody got anything — trivially "fair") is 1.0.
    """
    n = len(allocations)
    if n == 0:
        return 1.0
    total = float(sum(allocations))
    squares = float(sum(x * x for x in allocations))
    if squares == 0.0:
        return 1.0
    return (total * total) / (n * squares)


def percentile(sample: Sequence[float], p: float) -> float:
    """Nearest-rank percentile ``p`` (0..100) of ``sample``.

    Raises ``ValueError`` on an empty sample — a missing latency
    population is a bench bug, not a zero.
    """
    if not sample:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= p <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {p}")
    return _nearest_rank(sorted(sample), p)


def _nearest_rank(ordered: Sequence[float], p: float) -> float:
    """Nearest-rank percentile ``p`` of an already sorted, non-empty sample."""
    if p == 0.0:
        return ordered[0]
    rank = math.ceil(p / 100.0 * len(ordered))
    return ordered[rank - 1]


class LatencySummary:
    """p50/p99 summary of one latency sample (seconds).

    Summaries are **mergeable**: each instance retains its (sorted)
    sample, so ``a.merge(b)`` (or ``a + b``) recomputes exact
    percentiles over the union — no approximation, no histogram bins.
    That is the property the fleet gateway's sharded telemetry relies
    on: every ingestion shard keeps its own bounded latency sample and
    a global snapshot is a cheap merge of N small summaries instead of
    a stop-the-world scan over one giant guarded buffer.
    """

    __slots__ = ("count", "p50", "p99", "min", "max", "mean", "sample")

    def __init__(self, sample: Sequence[float]) -> None:
        self.count = len(sample)
        self.sample: Tuple[float, ...] = tuple(sorted(sample))
        if self.count == 0:
            self.p50: Optional[float] = None
            self.p99: Optional[float] = None
            self.min: Optional[float] = None
            self.max: Optional[float] = None
            self.mean: Optional[float] = None
        else:
            ordered = self.sample
            self.p50 = _nearest_rank(ordered, 50.0)
            self.p99 = _nearest_rank(ordered, 99.0)
            self.min = ordered[0]
            self.max = ordered[-1]
            self.mean = sum(ordered) / self.count

    def merge(self, other: "LatencySummary") -> "LatencySummary":
        """A new summary over the union of both samples (exact)."""
        if not isinstance(other, LatencySummary):
            raise TypeError(f"cannot merge LatencySummary with {type(other).__name__}")
        if other.count == 0:
            return LatencySummary(self.sample)
        if self.count == 0:
            return LatencySummary(other.sample)
        return LatencySummary(self.sample + other.sample)

    def __add__(self, other: "LatencySummary") -> "LatencySummary":
        return self.merge(other)

    @classmethod
    def merged(cls, summaries: Iterable["LatencySummary"]) -> "LatencySummary":
        """Merge many shard summaries into one (empty-safe)."""
        parts: List[float] = []
        for summary in summaries:
            parts.extend(summary.sample)
        return cls(parts)

    def as_dict(self) -> Dict[str, object]:
        return {
            "count": self.count,
            "p50_seconds": self.p50,
            "p99_seconds": self.p99,
            "min_seconds": self.min,
            "max_seconds": self.max,
            "mean_seconds": self.mean,
        }

    def __repr__(self) -> str:
        if self.count == 0:
            return "LatencySummary(empty)"
        return (
            f"LatencySummary(n={self.count}, p50={self.p50:.4f}s, "
            f"p99={self.p99:.4f}s)"
        )
