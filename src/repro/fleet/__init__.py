"""Fleet-scale open-loop workload generation (DESIGN.md §15).

``repro.fleet`` drives the StorM control plane at cloud-operator
scale: thousands of tenants, hundreds of thousands of attach /
detach sessions, partitioned by tenant across independent simulation
domains whose records are folded after the run.

- :class:`FleetConfig` — every knob (seed, shards, arrival process,
  Zipf tenant skew, diurnal curve, churn storms, HA);
- :func:`build_plan` — the precomputed, seed-deterministic arrival
  schedule;
- :class:`FleetDomain` — one self-contained simulator + mini-cloud +
  StorM platform per shard;
- :class:`FleetRun` — builds the domains, runs them one after another,
  folds their records on simulated time, and reports events,
  attach-latency percentiles, and a byte-reproducible session trace
  digest.
"""

from repro.fleet.arrivals import SessionPlan, build_plan
from repro.fleet.config import FleetConfig
from repro.fleet.domain import FleetDomain
from repro.fleet.generator import FleetRun

__all__ = [
    "FleetConfig",
    "FleetDomain",
    "FleetRun",
    "SessionPlan",
    "build_plan",
]
