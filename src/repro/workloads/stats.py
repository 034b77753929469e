"""Latency/throughput statistics and per-second timelines."""

from __future__ import annotations

import math


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile; ``p`` in [0, 100]."""
    if not values:
        raise ValueError("percentile of empty list")
    if not 0 <= p <= 100:
        raise ValueError(f"percentile must be in [0, 100], got {p}")
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100 * len(ordered)))
    return ordered[rank - 1]


class LatencyStats:
    """Accumulates per-operation latencies."""

    def __init__(self):
        self.samples: list[float] = []

    def add(self, latency: float) -> None:
        self.samples.append(latency)

    def __len__(self) -> int:
        return len(self.samples)

    @property
    def mean(self) -> float:
        if not self.samples:
            return 0.0
        return sum(self.samples) / len(self.samples)

    def p(self, q: float) -> float:
        return percentile(self.samples, q)


class Timeline:
    """Per-second event counts (the Fig. 13 TPS plot)."""

    def __init__(self, bucket_seconds: float = 1.0):
        self.bucket_seconds = bucket_seconds
        self._buckets: dict[int, int] = {}

    def add(self, when: float, count: int = 1) -> None:
        self._buckets[int(when / self.bucket_seconds)] = (
            self._buckets.get(int(when / self.bucket_seconds), 0) + count
        )

    def series(self) -> list[tuple[float, float]]:
        """[(bucket start time, rate per second)] over the covered range."""
        if not self._buckets:
            return []
        first, last = min(self._buckets), max(self._buckets)
        return [
            (b * self.bucket_seconds, self._buckets.get(b, 0) / self.bucket_seconds)
            for b in range(first, last + 1)
        ]

    def mean_rate(self, start: float, end: float) -> float:
        """Average events/second over [start, end)."""
        if end <= start:
            raise ValueError("end must be after start")
        total = sum(
            count
            for bucket, count in self._buckets.items()
            if start <= bucket * self.bucket_seconds < end
        )
        return total / (end - start)
