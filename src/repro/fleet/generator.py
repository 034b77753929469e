"""The fleet run: K independent domains, one fold, deterministic reporting."""

from __future__ import annotations

import hashlib
import heapq
import json
from operator import itemgetter
from typing import Optional

from repro.fleet.arrivals import SessionPlan, build_plan
from repro.fleet.config import FleetConfig
from repro.fleet.domain import FleetDomain
from repro.obs.metrics import MetricsRegistry
from repro.sim import ShardedKernel
from repro.sim.rng import SeededRNG


class FleetRunError(RuntimeError):
    pass


class FleetRun:
    """Build one simulator and domain per shard, place tenants, run
    the domains one after another, fold their records.

    Tenant ``k`` lives in domain ``k % shards`` — all of a tenant's
    sessions land in one domain, so no simulation object is ever
    touched from two domains and a domain's records are a function of
    ``(config, domain id)`` alone.  The fleet's ``trace``,
    ``peak_concurrent`` and ``completed`` are a stable merge of the
    per-domain records on simulated time, domain id breaking ties
    (DESIGN.md §15), so every reported figure is a pure function of the
    :class:`FleetConfig`.
    """

    def __init__(self, config: FleetConfig) -> None:
        config.validate()
        self.config = config
        self.kernel = ShardedKernel(config.shards)
        #: shared passive registry (keep_samples: the benchmarks read
        #: attach-latency percentiles out of it)
        self.metrics = MetricsRegistry(keep_samples=True)
        #: session records in attach-completion order (filled by
        #: :meth:`run`) — the deterministic byte stream the tiers digest
        self.trace: list[dict] = []
        self.plan: list[SessionPlan] = build_plan(
            config, SeededRNG(config.seed, name="fleet")
        )
        self.peak_concurrent = 0
        self.completed = 0
        self._ran = False

        per_shard: list[list[SessionPlan]] = [[] for _ in range(config.shards)]
        for plan in self.plan:
            per_shard[plan.tenant % config.shards].append(plan)
        self._per_shard = per_shard
        self.domains = [
            FleetDomain(sim, i, config, self.metrics)
            for i, sim in enumerate(self.kernel.shards)
        ]

    # -- execution ----------------------------------------------------------

    def run(self) -> dict:
        if self._ran:
            raise FleetRunError("already run")
        self._ran = True
        for domain, plans in zip(self.domains, self._per_shard):
            domain.start(plans)
        self.kernel.run()
        self._fold()
        short = [
            f"domain {domain.domain_id}: {domain.completed}/{len(plans)} sessions"
            for domain, plans in zip(self.domains, self._per_shard)
            if domain.completed != len(plans)
        ]
        if short:
            raise FleetRunError("drained short, " + "; ".join(short))
        return self.report()

    def _fold(self) -> None:
        """Merge the per-domain records on simulated time.  Each list is
        already in time order and ``heapq.merge`` is stable across its
        inputs, so equal instants keep domain-id order."""
        instant = itemgetter(0)
        self.trace = [
            record
            for _, record in heapq.merge(*(d.trace for d in self.domains), key=instant)
        ]
        active = 0
        for _, step in heapq.merge(*(d.marks for d in self.domains), key=instant):
            active += step
            if active > self.peak_concurrent:
                self.peak_concurrent = active
        self.completed = sum(domain.completed for domain in self.domains)

    # -- reporting -----------------------------------------------------------

    def trace_jsonl(self) -> str:
        return "\n".join(
            json.dumps(record, sort_keys=True) for record in self.trace
        ) + "\n"

    def trace_digest(self) -> str:
        return hashlib.blake2s(self.trace_jsonl().encode("utf-8")).hexdigest()

    def report(self) -> dict:
        latency = self.metrics.histogram("fleet.attach.latency")
        return {
            "sessions": self.completed,
            "tenants": self.config.tenants,
            "shards": self.config.shards,
            "events": self.kernel.events,
            "sim_elapsed": round(self.kernel.now, 9),
            "attach_p50": round(latency.percentile(50), 9),
            "attach_p99": round(latency.percentile(99), 9),
            "peak_concurrent": self.peak_concurrent,
            "io_ops": self.metrics.counter("fleet.io.ops").value,
            "trace_digest": self.trace_digest(),
        }


def run_fleet(config: Optional[FleetConfig] = None, **overrides) -> dict:
    """One-call convenience: ``run_fleet(sessions=1000, shards=4)``."""
    if config is None:
        config = FleetConfig(**overrides)
    elif overrides:
        raise TypeError("pass either a config or keyword overrides, not both")
    return FleetRun(config).run()
