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

from math import ceil, frexp, ldexp
from typing import Union

#: linear sub-buckets per octave of a :class:`Histogram` (a power of
#: two, so bucket edges are exact floats); a percentile reads at most
#: ``1/S`` high
S = 128
_TWO_S = 2 * S
#: below every positive bucket (the least subnormal's is -1072 * S)
_ZERO = -1 << 20


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
    """Streaming summary: count / sum / min / max, and percentiles from
    fixed log-scale buckets in O(1) memory.

    A positive value lands in bucket ``e * S + q`` for
    ``math.frexp(value) == (m, e)`` and ``q = int(m * 2 * S)``: one
    octave per exponent, ``S`` linear sub-buckets of the mantissa.
    ``frexp`` and the power-of-two scaling are exact, so a value's
    bucket is the same on every platform.  ``0.0`` has its own bucket
    below every positive one; a negative, NaN or infinite value is
    refused."""

    __slots__ = ("name", "scope", "count", "total", "min", "max", "buckets")

    def __init__(self, name: str, scope: str):
        self.name = name
        self.scope = scope
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")
        #: sparse bucket key -> number of observed values in it
        self.buckets: dict[int, int] = {}

    def observe(self, value: float) -> None:
        if value > 0.0:
            mantissa, exponent = frexp(value)
            key = exponent * S + int(mantissa * _TWO_S)
        elif value == 0.0:
            key = _ZERO
        else:
            raise ValueError(f"histogram {self.name!r} observes only values >= 0, got {value}")
        self.buckets[key] = self.buckets.get(key, 0) + 1
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, p: float) -> float:
        """Nearest-rank percentile (rank ``max(1, ceil(p/100 * n))``, as
        :func:`repro.workloads.stats.percentile`), reported as the upper
        edge of the rank's bucket clamped to ``max``: never below the
        exact value and at most a factor ``1 + 1/S`` above it.  0.0
        while nothing has been observed."""
        if not self.count:
            return 0.0
        rank = max(1, ceil(p / 100 * self.count))
        seen = 0
        for key in sorted(self.buckets):
            seen += self.buckets[key]
            if seen >= rank:
                break
        if key == _ZERO:
            return 0.0
        # bucket e * S + q holds the mantissas [q, q + 1) / 2S of exponent e
        q, exponent = key % S + S, key // S - 1
        return min(ldexp((q + 1) / _TWO_S, exponent), self.max)

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
    """Lazy-created metrics, one instance per (kind, name, scope)."""

    def __init__(self) -> None:
        self._metrics: dict[tuple[str, str, str], Metric] = {}

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
            metric = self._metrics[key] = Histogram(name, scope)
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
