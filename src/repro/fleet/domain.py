"""One fleet simulation domain: a self-contained mini-cloud driven by
fleet session plans.

Every domain owns its own :class:`~repro.sim.Simulator`,
:class:`~repro.cloud.CloudController`, compute/storage hosts, and
(optionally HA-replicated) StorM platform, so domains never interact:
what a domain records (its trace, its start/finish marks, its event
count) is a function of ``(config, domain id)`` alone, and
:class:`~repro.fleet.generator.FleetRun` folds the domains' records
after they have all run.

Sessions are *control-plane-faithful, data-plane-synthetic*: each one
runs the real atomic-attach saga (transient NAT rules, steering-chain
install/narrow under the mutex, intent-log journaling, HA quorum
shipping) against a lightweight session object instead of a full
TCP/iSCSI stack, then ticks synthetic I/O through its hold window and
runs the real detach saga — with ``evict_detached`` on, so conntrack,
gateway pairs, middle-boxes, and per-tenant metric scopes all stay
O(active) under churn.
"""

from __future__ import annotations

import heapq
from typing import Iterable

from repro.cloud import CloudController, CloudParams
from repro.core import StorM
from repro.core.ha import HaConfig
from repro.core.policy import ServiceSpec
from repro.core.saga import Saga
from repro.fleet.arrivals import SessionPlan
from repro.fleet.config import FleetConfig
from repro.iscsi.pdu import ISCSI_PORT
from repro.obs.metrics import MetricsRegistry
from repro.sim import Simulator

#: first ephemeral source port handed to fleet sessions
_PORT_BASE = 40000


class _FleetSession:
    """The minimal session surface the attach/detach sagas touch."""

    __slots__ = ("local_port", "alive")

    def __init__(self, local_port: int) -> None:
        self.local_port = local_port
        self.alive = True

    def close(self) -> None:
        self.alive = False


class _FleetVm:
    """Name-only stand-in for a tenant VM (the splice core reads
    nothing else when attribution is off)."""

    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        self.name = name


class _TenantState:
    __slots__ = ("tenant", "vm", "mb", "busy")

    def __init__(self, tenant, vm: _FleetVm) -> None:
        self.tenant = tenant
        self.vm = vm
        self.mb = None
        #: sessions of this tenant currently between spawn and detach
        self.busy = 0


class FleetDomain:
    """One domain's mini-cloud plus its session executor."""

    def __init__(
        self,
        sim: Simulator,
        domain_id: int,
        config: FleetConfig,
        metrics: MetricsRegistry,
    ) -> None:
        self.sim = sim
        self.domain_id = domain_id
        self.config = config
        self.metrics = metrics
        #: ``(attach-completion instant, record)`` per session, in this
        #: domain's event order (so non-decreasing in the instant)
        self.trace: list[tuple[float, dict]] = []
        #: ``(instant, +1 | -1)`` per session start / finish, same order
        self.marks: list[tuple[float, int]] = []
        self.completed = 0

        params = CloudParams(
            evict_detached=True,
            # wide subnets: gateway/middle-box churn allocates fresh
            # addresses each activation cycle (never reused, for
            # determinism), so /24s would exhaust under fleet churn
            storage_subnet="10.0.0.0/8",
            tenant_subnet_template="172.{tenant}.0.0/16",
        )
        self.cloud = CloudController(sim, params)
        self.host = self.cloud.add_compute_host(f"d{domain_id}-c1")
        self.aux = self.cloud.add_compute_host(f"d{domain_id}-c2")
        self.storage = self.cloud.add_storage_host(f"d{domain_id}-st")
        ha_config = HaConfig(seed=config.seed * 1009 + domain_id) if config.ha else None
        self.storm = StorM(sim, self.cloud, ha_config=ha_config)
        self.storm.engine.on_commit = self._on_commit

        #: per-attach HA shipping RTT, keyed by saga cookie until the
        #: session process charges it into ``fleet.attach.latency``
        self._ship_rtts: dict[str, float] = {}
        self._tenants: dict[int, _TenantState] = {}
        self._next_port = _PORT_BASE
        self._free_ports: list[int] = []

    # -- deterministic ephemeral ports -------------------------------------

    def _alloc_port(self) -> int:
        if self._free_ports:
            return heapq.heappop(self._free_ports)
        port = self._next_port
        self._next_port += 1
        return port

    def _release_port(self, port: int) -> None:
        heapq.heappush(self._free_ports, port)

    # -- tenant lifecycle ---------------------------------------------------

    def _ensure_tenant(self, tenant_id: int) -> _TenantState:
        state = self._tenants.get(tenant_id)
        if state is None:
            # tenant indices are per-domain 1-based (the /16 template
            # uses the cloud's own counter, not the fleet-wide id)
            tenant = self.cloud.create_tenant(f"d{self.domain_id}-t{tenant_id}")
            state = _TenantState(tenant, _FleetVm(f"d{self.domain_id}-v{tenant_id}"))
            # bounded by config.tenants (<= 250 per domain), not churn;
            # the churn-scaled state inside — middle-box, gateways,
            # metric scope — is evicted by _tenant_idle
            # stormlint: ignore[bounded-tenant-registry]
            self._tenants[tenant_id] = state
        if state.mb is None:
            state.mb = self.storm.provision_middlebox(
                state.tenant,
                ServiceSpec(
                    "relay",
                    "noop",
                    vcpus=1,
                    memory_mb=256,
                    relay="fwd",
                    placement=self.aux.name,
                ),
            )
        return state

    def _tenant_idle(self, state: _TenantState) -> None:
        """Last session gone: deprovision the tenant's middle-box and
        drop its fleet metric scope.  (The platform's own ``evict-state``
        detach step already released the gateways and conntrack.)"""
        if state.mb is not None:
            self.storm.deprovision_middlebox(state.mb)
            state.mb = None
        self.metrics.evict_scope(state.tenant.name)

    def _on_commit(self, saga: Saga) -> None:
        if saga.op == "fleet_attach":
            self._ship_rtts[saga.cookie] = saga.ship_rtt

    def _after_detach(self, state: _TenantState) -> None:
        if state.busy == 0 and self.storm.tenant_flow_count(state.tenant.name) == 0:
            self._tenant_idle(state)

    # -- the session processes ----------------------------------------------

    def start(self, plans: Iterable[SessionPlan]) -> None:
        """Spawn the dispatcher that releases sessions at plan times."""
        self.sim.process(self._dispatch(list(plans)))

    def _dispatch(self, plans: list[SessionPlan]):
        for plan in plans:
            delay = plan.at - self.sim.now
            if delay > 0.0:
                yield self.sim.timeout(delay)
            self.sim.process(self._session(plan))

    def _session(self, plan: SessionPlan):
        config = self.config
        state = self._ensure_tenant(plan.tenant)
        state.busy += 1
        t0 = self.sim.now
        self.marks.append((t0, 1))
        port = self._alloc_port()
        cookie = f"fleet:{self.domain_id}:{plan.index}"

        def connect():
            yield self.sim.timeout(config.connect_latency)
            return _FleetSession(port)

        flow = yield self.sim.process(
            self.storm._attach_spliced_flow(
                op="fleet_attach",
                tenant=state.tenant,
                vm=state.vm,
                host=self.host,
                middleboxes=[state.mb],
                cookie=cookie,
                target_ip=self.storage.storage_iface.ip,
                port=ISCSI_PORT,
                volume_name=f"fleet://{self.domain_id}/{plan.index}",
                connect=connect,
                ingress_host=self.host,
                egress_host=self.aux,
                detail={"domain": self.domain_id, "session": plan.index},
            )
        )
        # attach latency = simulated saga time + the quorum-shipping
        # round trips the HA mesh charged this saga (satellite: the
        # control plane's replication cost lands in the fleet SLO)
        latency = (self.sim.now - t0) + self._ship_rtts.pop(cookie, 0.0)
        self.metrics.histogram("fleet.attach.latency").observe(latency)
        self.trace.append(
            (
                self.sim.now,
                {
                    "d": self.domain_id,
                    "i": plan.index,
                    "t": state.tenant.name,
                    "at": t0,
                    "lat": latency,
                },
            )
        )

        gap = plan.hold / (plan.ios + 1)
        for _ in range(plan.ios):
            yield self.sim.timeout(gap)
            self.metrics.counter("fleet.io.ops").inc()
            self.metrics.counter("fleet.tenant.ios", scope=state.tenant.name).inc()
        yield self.sim.timeout(gap)

        self.storm.detach(flow)
        self._release_port(port)
        state.busy -= 1
        self._after_detach(state)
        self.marks.append((self.sim.now, -1))
        self.completed += 1
