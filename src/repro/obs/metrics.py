"""Counters, gauges, and histograms in a scoped registry.

Metrics are keyed by ``(kind, name, scope)``: ``scope`` is the tenant
name for tenant-attributed metrics (service byte counts, relay journal
stats), or a component name (a link, a switch, a disk) for plant-level
ones.  Everything is plain Python arithmetic — no simulation events,
no RNG — so the registry can sit on the hot path behind a ``None``
guard without perturbing determinism.

``snapshot()`` renders the registry as schema records sorted by key,
so two identical runs export byte-identical metric sections.
"""

from __future__ import annotations

from typing import Union


class Counter:
    """Monotonically increasing count."""

    __slots__ = ("name", "scope", "value")

    def __init__(self, name: str, scope: str):
        self.name = name
        self.scope = scope
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n

    def record(self) -> dict:
        return {"type": "counter", "name": self.name, "scope": self.scope,
                "value": self.value}


class Gauge:
    """Last-written value (queue depths, journal sizes)."""

    __slots__ = ("name", "scope", "value")

    def __init__(self, name: str, scope: str):
        self.name = name
        self.scope = scope
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def record(self) -> dict:
        return {"type": "gauge", "name": self.name, "scope": self.scope,
                "value": self.value}


class Histogram:
    """Streaming summary: count / sum / min / max of observed values.

    With ``keep_samples`` (opt-in, for benchmark harnesses that need
    percentiles) every observed value is also retained, at O(n) memory
    — the default streaming mode stays O(1)."""

    __slots__ = ("name", "scope", "count", "total", "min", "max", "samples")

    def __init__(self, name: str, scope: str, keep_samples: bool = False):
        self.name = name
        self.scope = scope
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")
        self.samples: Union[list, None] = [] if keep_samples else None

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        if self.samples is not None:
            self.samples.append(value)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, p: float) -> float:
        """Nearest-rank percentile over retained samples (0 while a
        sample-keeping histogram is still empty).  Without
        ``keep_samples`` there is nothing to rank, and an answer of 0
        would read as a measured zero."""
        if self.samples is None:
            raise ValueError(
                f"histogram {self.name!r} keeps no samples; build its "
                "registry with keep_samples=True to read percentiles"
            )
        if not self.samples:
            return 0.0
        ordered = sorted(self.samples)
        rank = min(len(ordered) - 1, max(0, int(p / 100.0 * len(ordered))))
        return ordered[rank]

    def record(self) -> dict:
        return {
            "type": "histogram",
            "name": self.name,
            "scope": self.scope,
            "count": self.count,
            "sum": self.total,
            "min": self.min if self.count else 0.0,
            "max": self.max if self.count else 0.0,
        }


Metric = Union[Counter, Gauge, Histogram]


class MetricsRegistry:
    """Lazy-created metrics, one instance per (kind, name, scope).

    ``keep_samples`` makes every histogram retain raw samples so
    benchmark harnesses can read percentiles; off by default."""

    def __init__(self, keep_samples: bool = False):
        self._metrics: dict[tuple[str, str, str], Metric] = {}
        self.keep_samples = keep_samples

    def counter(self, name: str, scope: str = "") -> Counter:
        key = ("counter", name, scope)
        metric = self._metrics.get(key)
        if metric is None:
            metric = self._metrics[key] = Counter(name, scope)
        return metric  # type: ignore[return-value]

    def gauge(self, name: str, scope: str = "") -> Gauge:
        key = ("gauge", name, scope)
        metric = self._metrics.get(key)
        if metric is None:
            metric = self._metrics[key] = Gauge(name, scope)
        return metric  # type: ignore[return-value]

    def histogram(self, name: str, scope: str = "") -> Histogram:
        key = ("histogram", name, scope)
        metric = self._metrics.get(key)
        if metric is None:
            metric = self._metrics[key] = Histogram(
                name, scope, keep_samples=self.keep_samples
            )
        return metric  # type: ignore[return-value]

    def scoped(self, scope: str) -> list[Metric]:
        """Every metric attributed to one scope (e.g. one tenant)."""
        return [m for key, m in sorted(self._metrics.items()) if key[2] == scope]

    def evict_scope(self, scope: str) -> int:
        """Drop every metric attributed to ``scope``; returns the count.

        The detach path calls this (via ``ObsBus.release_scope``) when
        a tenant's last flow goes away, so per-tenant counters stop
        accumulating O(ever-attached) registry entries.  Next use of
        the scope lazily re-creates its metrics from zero — callers
        that need the final values must snapshot first.
        """
        keys = [key for key in self._metrics if key[2] == scope]
        for key in keys:
            del self._metrics[key]
        return len(keys)

    def snapshot(self) -> list[dict]:
        """Deterministically ordered schema records for export."""
        return [self._metrics[key].record() for key in sorted(self._metrics)]

    def __len__(self) -> int:
        return len(self._metrics)
