"""Knobs for the fleet-scale workload generator."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class FleetConfig:
    """One fleet run, fully determined by its fields.

    The generator is *open-loop*: arrivals come from a precomputed
    seeded schedule, not from feedback, so two runs with equal configs
    produce byte-identical traces (the property the fleet benchmarks
    and determinism tests pin).
    """

    #: master seed; every stochastic stream derives from it by name
    seed: int = 0
    #: independent simulation domains; tenant ``k`` runs in domain
    #: ``k % shards`` and the domains run one after another
    shards: int = 1
    #: tenant population; sizes are Zipf-skewed (``zipf_s``)
    tenants: int = 20
    #: base session arrivals (churn storms add ``storms * storm_size``)
    sessions: int = 200

    # -- arrival process --------------------------------------------------
    #: "poisson" (exponential gaps) or "pareto" (heavy-tailed gaps)
    arrival: str = "poisson"
    #: mean arrival rate, sessions per simulated second
    arrival_rate: float = 40.0
    #: Pareto shape for heavy-tailed inter-arrivals (must be > 1 so the
    #: mean gap exists and equals ``1 / arrival_rate``)
    pareto_alpha: float = 1.5
    #: Zipf exponent for the tenant-popularity distribution
    zipf_s: float = 1.1
    #: diurnal thinning: arrival intensity dips by up to this fraction
    #: at the trough of a cosine with period ``diurnal_period``; 0 = flat
    diurnal_amplitude: float = 0.0
    diurnal_period: float = 60.0

    # -- churn storms -----------------------------------------------------
    #: synchronized attach/detach bursts injected through the run
    churn_storms: int = 0
    #: sessions per storm (minimum hold time, near-simultaneous)
    storm_size: int = 50

    # -- per-session shape ------------------------------------------------
    #: mean session lifetime (exponential), floored at ``min_hold``
    mean_hold: float = 5.0
    min_hold: float = 0.5
    #: synthetic I/Os a session counts over its hold (``fleet.io.ops``);
    #: the hold is one wake, so they cost no events
    ios_per_session: int = 4
    #: simulated latency of the session connect step
    connect_latency: float = 0.002

    # -- control plane ----------------------------------------------------
    #: replicate every domain's control plane (3-way quorum shipping);
    #: attach latency then includes the journal-shipping round trips
    ha: bool = False

    def validate(self) -> None:
        if self.shards < 1:
            raise ValueError("fleet needs at least one shard")
        if self.tenants < 1:
            raise ValueError("tenants must be >= 1")
        per_domain = -(-self.tenants // self.shards)
        if per_domain > 250:
            # each domain's /16 tenant-subnet template uses that
            # domain's own tenant counter as an octet
            raise ValueError(
                f"too many tenants per shard ({per_domain}); "
                "max 250 — raise shards or lower tenants"
            )
        if self.sessions < 1:
            raise ValueError("sessions must be >= 1")
        if self.arrival not in ("poisson", "pareto"):
            raise ValueError(f"unknown arrival process {self.arrival!r}")
        if self.arrival_rate <= 0:
            raise ValueError("arrival_rate must be positive")
        if self.arrival == "pareto" and self.pareto_alpha <= 1.0:
            raise ValueError("pareto_alpha must exceed 1 (finite mean)")
        if not 0.0 <= self.diurnal_amplitude <= 1.0:
            raise ValueError("diurnal_amplitude must be in [0, 1]")
        if self.diurnal_period <= 0:
            raise ValueError("diurnal_period must be positive")
        if self.churn_storms < 0 or self.storm_size < 0:
            raise ValueError("storm knobs must be non-negative")
        if self.min_hold <= 0 or self.mean_hold <= 0:
            raise ValueError("hold times must be positive")
        if self.ios_per_session < 0:
            raise ValueError("ios_per_session must be non-negative")
        if self.connect_latency < 0:
            raise ValueError("connect_latency must be non-negative")
