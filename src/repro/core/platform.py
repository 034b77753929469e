"""The StorM platform orchestrator (paper §III-D, §IV).

Ties everything together: parses tenant policies, provisions gateway
pairs and middle-box VMs, wires relays, and performs the *atomic
volume attach*:

1. take the platform-wide attach mutex;
2. install the transient NAT rules (host → ingress → egress) and the
   wildcard steering chain;
3. attach the volume — the host initiator's connection is pulled
   through the gateways and middle-boxes, and conntrack pins every
   translation;
4. attribute the new connection (login hook → IQN → VM) and narrow the
   steering rules to the now-known source port;
5. remove the transient NAT rules and release the mutex.

Every multi-step control operation here is declared as a list of
:class:`~repro.core.saga.SagaStep`\\ s and handed to the platform's
:class:`~repro.core.saga.SagaEngine`, which journals it in the
write-ahead intent log and runs it; this module holds the operations,
not the executor.  The platform owns the controller the engine answers
to — one crashable :class:`~repro.core.saga.ControlPlaneNode`, or the
leader of a replicated :class:`~repro.core.ha.HaCluster` — so a
controller crash mid-operation (``FaultInjector.crash``) is settled on
restart by :meth:`StorM.recover` (or on election by the new leader's
takeover): replay past the pivot step, rollback before it — never
leaving a half-spliced flow, a leaked wildcard rule, or an orphaned
NAT entry.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from types import GeneratorType
from typing import Callable, Optional

from repro.cloud.compute import ComputeHost
from repro.cloud.controller import CloudController
from repro.cloud.tenant import Tenant
from repro.cloud.vm import VirtualMachine
from repro.core.attribution import AttributionRecord, ConnectionAttributor
from repro.core.middlebox import MiddleBox, NoopService, StorageService
from repro.core.policy import PolicyError, ServiceSpec, TenantPolicy
from repro.core.relay import ActiveRelay, PassiveRelay, RelayMode
from repro.core.saga import (
    ControllerCrashed,
    ControlPlaneNode,
    IntentLog,
    SagaEngine,
    SagaStep,
)
from repro.core.splicing import (
    GatewayPair,
    create_gateway_pair,
    forget_attach_conntrack,
    install_attach_nat,
    release_gateway_pair,
    remove_attach_nat,
)
from repro.core.steering import SteeringChain
from repro.obs.eventlog import EventLog
from repro.sim import Simulator


@dataclass(eq=False)
class StorMFlow:
    """One spliced storage connection with its service chain.

    ``eq=False``: flows are identity objects — membership tests in the
    platform's flow list must not walk every field (and chain) of every
    live flow."""

    tenant_name: str
    vm_name: str
    volume_name: str
    src_port: int
    middleboxes: list[MiddleBox]
    chain: SteeringChain
    gateways: GatewayPair
    cookie: str
    session: object = None
    attribution: Optional[AttributionRecord] = None
    detached: bool = False
    #: the compute host the session originates from and the true
    #: storage-side address — retained so the detach saga's eviction
    #: step can forget the exact conntrack tuples the attach pinned.
    host: object = None
    target_ip: str = ""


class StorM:
    """The provider-side platform."""

    def __init__(
        self,
        sim: Simulator,
        cloud: CloudController,
        event_log: Optional[EventLog] = None,
        ha: bool = False,
        ha_config=None,
    ):
        self.sim = sim
        self.cloud = cloud
        self.attributor = ConnectionAttributor()
        self.gateway_pairs: dict[str, GatewayPair] = {}
        self.middleboxes: dict[str, MiddleBox] = {}
        self.flows: list[StorMFlow] = []
        #: live-flow counts per tenant and per middle-box, maintained
        #: alongside ``flows`` so fleet-scale paths (detach eviction,
        #: deprovision guards) stay O(1) instead of scanning the flow
        #: list — pure bookkeeping, no simulation events.
        self._tenant_flows: dict[str, int] = {}
        self._mb_refs: dict[str, int] = {}
        #: attaches in flight (saga begun, flow not yet registered) per
        #: tenant — the detach-side eviction must not tear down a
        #: tenant's gateways while a concurrent attach is mid-saga.
        self._tenant_pending: dict[str, int] = {}
        #: state-eviction knob (``CloudParams.evict_detached``): when
        #: on, the detach saga tears down the flow's pinned conntrack
        #: and idle tenants' gateways/metric scopes.
        self.evict_detached = cloud.params.evict_detached
        self._mb_ids = itertools.count(1)
        self._placement_cycle = None
        self.service_factories: dict[str, Callable[[ServiceSpec, "StorM"], StorageService]] = {
            "noop": lambda spec, storm: NoopService(),
        }
        #: recovery/repair timeline (shared with the fault injector in
        #: chaos runs); None keeps the fast path allocation-free.
        self.event_log = event_log
        #: observability bus (set by ``repro.obs.instrument``): when
        #: non-None gateways/relays/services created later inherit it.
        self.obs = None
        #: journals and runs every control operation of this platform
        self.engine = SagaEngine(sim, event_log)
        #: replicated control plane (:mod:`repro.core.ha`); None = one
        #: controller node.
        self.ha = None
        #: the node control operations run on — the one crashable
        #: controller, which settles its in-flight sagas when the fault
        #: injector restarts it, or the current HA leader (the cluster
        #: re-points this on every election).
        self.controller: Optional[ControlPlaneNode]
        if ha or ha_config is not None:
            from repro.core.ha import HaCluster, HaConfig

            self.ha = HaCluster(
                self,
                ha_config if ha_config is not None else HaConfig(),
            )
            self.intent_log.shipper = self.ha
            self.engine.authority = self.ha.has_authority
            self.controller = self.ha.leader_node
        else:
            node = self.controller = ControlPlaneNode(sim)
            node.on_restart = self.recover
            self.engine.authority = lambda saga: not node.crashed

    @property
    def intent_log(self) -> IntentLog:
        """The engine's write-ahead journal of control operations."""
        return self.engine.log

    def recover(self) -> dict[str, int]:
        """Crash recovery: resolve every in-flight saga in the intent
        log.  Called by the fault injector's restart of the controller
        node; safe to call repeatedly."""
        return self.engine.resolve(self.intent_log.incomplete())

    # -- end-to-end integrity ----------------------------------------------

    @property
    def integrity(self):
        """The cloud's :class:`repro.integrity.IntegrityLayer` (None
        when ``params.integrity`` is off)."""
        return getattr(self.cloud, "integrity", None)

    @staticmethod
    def _integrity_hops(middleboxes: list[MiddleBox]) -> list[str]:
        """Relay hops that stamp traversal marks, in upstream order.
        FWD-mode boxes forward at IP level without touching PDUs, so
        they cannot mark — the proof covers the intercepting hops."""
        return [
            mb.name
            for mb in middleboxes
            if mb.relay_mode in (RelayMode.PASSIVE, RelayMode.ACTIVE)
        ]

    def _flow_iqn(self, flow: StorMFlow) -> Optional[str]:
        if flow.volume_name.startswith("objstore://"):
            return None  # object flows carry no iSCSI stamps
        try:
            volume, _host = self.cloud.volume_location(flow.volume_name)
        except KeyError:
            return None  # volume already deleted (late detach)
        return volume.iqn

    def _register_flow_chain(self, flow: StorMFlow) -> None:
        """Authorized registration of the chain the endpoints expect.
        Called from attach/reconfigure sagas — the one path a tenant's
        traversal expectations may legitimately change through."""
        layer = self.integrity
        if layer is None:
            return
        iqn = self._flow_iqn(flow)
        if iqn is not None:
            layer.register_chain(iqn, self._integrity_hops(flow.middleboxes))

    def _unregister_flow_chain(self, flow: StorMFlow) -> None:
        layer = self.integrity
        if layer is None:
            return
        iqn = self._flow_iqn(flow)
        if iqn is not None:
            layer.unregister_chain(iqn)

    # -- registration ------------------------------------------------------

    def register_service(
        self, kind: str, factory: Callable[[ServiceSpec, "StorM"], StorageService]
    ) -> None:
        self.service_factories[kind] = factory

    # -- gateways -----------------------------------------------------------

    def ensure_gateways(
        self,
        tenant: Tenant,
        ingress_host: Optional[ComputeHost] = None,
        egress_host: Optional[ComputeHost] = None,
    ) -> GatewayPair:
        """Per-tenant gateway pair, created on first use.

        Placement is a latency knob (paper §V-A): co-locating the
        ingress with the VM's host and the egress near the storage node
        trims the routing overhead; spreading them is the worst case.
        """
        pair = self.gateway_pairs.get(tenant.name)
        if pair is not None:
            return pair
        hosts = list(self.cloud.compute_hosts.values())
        if not hosts:
            raise PolicyError("no compute hosts available for gateways")
        ingress_host = ingress_host or hosts[0]
        egress_host = egress_host or hosts[-1]
        pair = create_gateway_pair(self.cloud, tenant, ingress_host, egress_host)
        self.gateway_pairs[tenant.name] = pair
        if self.obs is not None:
            from repro.obs.instrument import wire_node

            wire_node(self.obs, pair.ingress)
            wire_node(self.obs, pair.egress)
        return pair

    def release_gateways(self, tenant_name: str) -> bool:
        """Tear down a tenant's gateway pair (last flow detached).

        Idempotent; returns True when a pair was actually released.
        The next attach for the tenant re-creates a fresh pair through
        :meth:`ensure_gateways` — addresses are never reused, so the
        create/release cycle stays deterministic.
        """
        pair = self.gateway_pairs.pop(tenant_name, None)
        if pair is None:
            return False
        release_gateway_pair(self.cloud, pair)
        return True

    # -- flow bookkeeping ---------------------------------------------------

    def tenant_flow_count(self, tenant_name: str) -> int:
        """Live (registered, not-yet-detached) flows of one tenant."""
        return self._tenant_flows.get(tenant_name, 0)

    def _track_flow(self, flow: StorMFlow) -> None:
        self._tenant_flows[flow.tenant_name] = (
            self._tenant_flows.get(flow.tenant_name, 0) + 1
        )
        for mb in flow.middleboxes:
            self._mb_refs[mb.name] = self._mb_refs.get(mb.name, 0) + 1

    def _untrack_flow(self, flow: StorMFlow) -> None:
        remaining = self._tenant_flows.get(flow.tenant_name, 0) - 1
        if remaining > 0:
            self._tenant_flows[flow.tenant_name] = remaining
        else:
            self._tenant_flows.pop(flow.tenant_name, None)
        for mb in flow.middleboxes:
            refs = self._mb_refs.get(mb.name, 0) - 1
            if refs > 0:
                self._mb_refs[mb.name] = refs
            else:
                self._mb_refs.pop(mb.name, None)

    # -- middle-box provisioning -----------------------------------------------

    def _next_host(self) -> ComputeHost:
        if self._placement_cycle is None:
            self._placement_cycle = itertools.cycle(self.cloud.compute_hosts.values())
        return next(self._placement_cycle)

    def provision_middlebox(self, tenant: Tenant, spec: ServiceSpec) -> MiddleBox:
        """Create the middle-box VM from a spec and install its service."""
        spec.validate()
        if spec.kind not in self.service_factories:
            raise PolicyError(
                f"unknown service kind {spec.kind!r}; registered: "
                f"{sorted(self.service_factories)}"
            )
        state: dict = {}

        def do_provision():
            state["mb"] = self._provision_middlebox_impl(tenant, spec)
            return state["mb"]

        def undo_provision():
            mb = state.get("mb")
            if mb is not None:
                self._deprovision_middlebox_impl(mb)

        saga = self.engine.begin(
            "provision_middlebox",
            f"storm-mb:{tenant.name}:{spec.name}",
            [SagaStep("provision", do=do_provision, undo=undo_provision, locked=False)],
            tenant=tenant.name,
            kind=spec.kind,
        )
        return self.engine.run_now(saga)

    def _provision_middlebox_impl(self, tenant: Tenant, spec: ServiceSpec) -> MiddleBox:
        host = (
            self.cloud.compute_hosts[spec.placement]
            if spec.placement
            else self._next_host()
        )
        name = f"mb-{tenant.name}-{spec.name}-{next(self._mb_ids)}"
        mb = MiddleBox(self.sim, name, tenant, vcpus=spec.vcpus, memory_mb=spec.memory_mb)
        mb.host_name = host.name
        self.cloud.plug_instance_iface(mb, host, tenant)
        # the only in-guest configuration the paper requires:
        mb.stack.ip_forward = True
        mb.stack.forward_delay = self.cloud.params.middlebox_forward_delay
        mb.relay_mode = RelayMode(spec.relay)
        mb.install_service(self.service_factories[spec.kind](spec, self))
        if mb.relay_mode is RelayMode.PASSIVE:
            mb.relay = PassiveRelay(self.sim, mb, self.cloud.params)
            mb.relay.integrity = self.integrity
        host.committed_vcpus += mb.vcpus
        host.committed_memory_mb += mb.memory_mb
        self.middleboxes[name] = mb
        if self.obs is not None:
            from repro.obs.instrument import wire_node

            wire_node(self.obs, mb)
            if mb.relay is not None:
                mb.relay.obs = self.obs
            if mb.service is not None:
                mb.service.obs = self.obs
        return mb

    def deprovision_middlebox(self, mb: MiddleBox) -> None:
        """Tear a middle-box VM down and return its resources.

        The box must not be part of any live flow's chain — detach or
        reconfigure the flow first.  Crashed boxes can (and should) be
        deprovisioned: their NIC is already dark, but the OVS port,
        ARP entries, and committed capacity still need reclaiming.
        """
        if self._mb_refs.get(mb.name, 0):
            # O(1) guard; scan only to name a culprit in the error
            for flow in self.flows:
                if mb in flow.middleboxes:
                    raise PolicyError(
                        f"middle-box {mb.name} is still in the chain of "
                        f"{flow.vm_name}:{flow.volume_name}; detach first"
                    )
        saga = self.engine.begin(
            "deprovision_middlebox",
            f"storm-mb:{mb.tenant.name}:{mb.name}",
            [
                SagaStep(
                    "deprovision",
                    do=lambda: self._deprovision_middlebox_impl(mb),
                    pivot=True,
                    locked=False,
                    # teardown is idempotent (_impl no-ops once popped);
                    # a crash mid-step re-drives it, never re-provisions
                    forward_only=True,
                )
            ],
            mb=mb.name,
        )
        self.engine.run_now(saga)

    def _deprovision_middlebox_impl(self, mb: MiddleBox) -> None:
        if self.middleboxes.pop(mb.name, None) is None:
            return  # already deprovisioned
        if mb.relay is not None and hasattr(mb.relay, "shutdown"):
            mb.relay.shutdown()
        mb.relay = None
        mb.stack.forward_hook = None
        host = self.cloud.compute_hosts.get(mb.host_name)
        if host is not None:
            self.cloud.unplug_instance_iface(mb, host)
            host.committed_vcpus -= mb.vcpus
            host.committed_memory_mb -= mb.memory_mb

    def _configure_active_relay(
        self, mb: MiddleBox, gateways: GatewayPair, port: int
    ) -> None:
        if mb.relay is not None:
            if getattr(mb.relay, "egress_port", port) != port:
                raise PolicyError(
                    f"middle-box {mb.name} already relays port "
                    f"{mb.relay.egress_port}; one service port per box"
                )
            return
        mb.relay = ActiveRelay(
            self.sim,
            mb,
            egress_ip=gateways.egress.instance_ip,
            params=self.cloud.params,
            egress_port=port,
            cookie=f"redirect:{mb.name}",
        )
        mb.relay.integrity = self.integrity
        if self.obs is not None:
            mb.relay.obs = self.obs

    # -- the atomic attach -------------------------------------------------------

    def _spliced_attach_steps(
        self,
        *,
        host,
        gateways: GatewayPair,
        chain: SteeringChain,
        cookie: str,
        target_ip: str,
        port: int,
        connect: Callable[[], GeneratorType],
        narrow: Callable[[dict], None],
        register: Callable[[dict], StorMFlow],
    ) -> tuple[list[SagaStep], dict]:
        """The paper's atomic attach as a saga of idempotent steps.

        Steps 1–5 hold the attach mutex (the wildcard window); the
        ``narrow`` step is the pivot — once it is journaled, crash
        recovery completes the attach instead of compensating it.
        """
        state: dict = {}

        def do_close_session():
            session = state.get("session")
            if session is not None and session.alive:
                session.close()

        def do_narrow():
            narrow(state)

        def do_register():
            return register(state)

        steps = [
            SagaStep(
                "install-nat",
                do=lambda: install_attach_nat(host, gateways, target_ip, cookie, port=port),
                undo=lambda: remove_attach_nat(host, gateways, cookie),
            ),
            SagaStep(
                "install-chain",
                do=lambda: chain.install(src_port=None),
                undo=chain.remove,
            ),
            SagaStep("connect", do=connect, undo=do_close_session, store="session"),
            SagaStep("narrow", do=do_narrow, undo=chain.remove, pivot=True),
            SagaStep(
                "remove-nat",
                do=lambda: remove_attach_nat(host, gateways, cookie),
            ),
            SagaStep("register-flow", do=do_register, locked=False),
        ]
        return steps, state

    def _attach_spliced_flow(
        self,
        *,
        op: str,
        tenant: Tenant,
        vm: VirtualMachine,
        host,
        middleboxes: list[MiddleBox],
        cookie: str,
        target_ip: str,
        port: int,
        volume_name: str,
        connect: Callable[[], GeneratorType],
        ingress_host: Optional[ComputeHost] = None,
        egress_host: Optional[ComputeHost] = None,
        attribute: bool = False,
        volume=None,
        detail: Optional[dict] = None,
    ):
        """Process: the steering/rollback core shared by both attach
        paths (block volumes and object sessions).

        Ensures the tenant's gateways, configures active relays on the
        service port, builds the steering chain, and runs the atomic
        attach saga from :meth:`_spliced_attach_steps`.  ``attribute``
        turns on connection attribution (block attach only — object
        flows have no login hook to attribute); ``volume`` (when given)
        is handed to each chained service's ``on_volume_attached``.
        """
        gateways = self.ensure_gateways(tenant, ingress_host, egress_host)
        for mb in middleboxes:
            if mb.relay_mode is RelayMode.ACTIVE:
                self._configure_active_relay(mb, gateways, port)
        chain = SteeringChain(
            self.cloud.sdn, gateways, list(middleboxes), cookie, service_port=port
        )

        def narrow(state):
            session = state["session"]
            if attribute:
                state["attribution"] = self.attributor.attribute(
                    host.storage_iface.ip, session.local_port
                )
            chain.narrow(session.local_port)

        def register(state):
            session = state["session"]
            flow = StorMFlow(
                tenant_name=tenant.name,
                vm_name=vm.name,
                volume_name=volume_name,
                src_port=session.local_port,
                middleboxes=list(middleboxes),
                chain=chain,
                gateways=gateways,
                cookie=cookie,
                session=session,
                attribution=state.get("attribution"),
                host=host,
                target_ip=target_ip,
            )
            self.flows.append(flow)
            self._track_flow(flow)
            self._register_flow_chain(flow)
            if volume is not None:
                for mb in middleboxes:
                    if mb.service is not None:
                        mb.service.on_volume_attached(volume, flow)
            return flow

        steps, state = self._spliced_attach_steps(
            host=host,
            gateways=gateways,
            chain=chain,
            cookie=cookie,
            target_ip=target_ip,
            port=port,
            connect=connect,
            narrow=narrow,
            register=register,
        )
        saga = self.engine.begin(op, cookie, steps, state=state, **(detail or {}))
        pending = self._tenant_pending
        pending[tenant.name] = pending.get(tenant.name, 0) + 1
        try:
            flow = yield from self.engine.run(saga)
        finally:
            left = pending.get(tenant.name, 0) - 1
            if left > 0:
                pending[tenant.name] = left
            else:
                pending.pop(tenant.name, None)
        return flow

    def attach_with_services(
        self,
        tenant: Tenant,
        vm: VirtualMachine,
        volume_name: str,
        middleboxes: list[MiddleBox],
        ingress_host: Optional[ComputeHost] = None,
        egress_host: Optional[ComputeHost] = None,
    ):
        """Process: splice + steer + attach one volume through a chain."""
        volume, storage_host = self.cloud.volume_location(volume_name)
        target_ip = storage_host.storage_iface.ip
        self.attributor.watch_host(vm.host)
        from repro.iscsi.pdu import ISCSI_PORT

        def connect():
            return vm.host.attach_volume(vm, volume_name, volume.iqn, target_ip)

        flow = yield from self._attach_spliced_flow(
            op="attach_with_services",
            tenant=tenant,
            vm=vm,
            host=vm.host,
            middleboxes=middleboxes,
            cookie=f"storm:{vm.name}:{volume_name}",
            target_ip=target_ip,
            port=ISCSI_PORT,
            volume_name=volume_name,
            connect=connect,
            ingress_host=ingress_host,
            egress_host=egress_host,
            attribute=True,
            volume=volume,
            detail={"vm": vm.name, "volume": volume_name},
        )
        return flow

    # -- object-storage flows (§II-A: "equally applicable") --------------------

    def attach_object_session(
        self,
        tenant: Tenant,
        vm: VirtualMachine,
        server_ip: str,
        middleboxes: list[MiddleBox],
        port: Optional[int] = None,
        ingress_host: Optional[ComputeHost] = None,
        egress_host: Optional[ComputeHost] = None,
    ):
        """Process: splice an *object-store* connection through a chain.

        Identical protocol to the volume attach — transient NAT rules,
        wildcard steering under the mutex, then narrowing — just on the
        object port, demonstrating the paper's claim that the design
        carries beyond block storage.
        """
        from repro.objstore import OBJECT_PORT, ObjectStoreClient

        port = port or OBJECT_PORT
        host = vm.host
        if not hasattr(host, "object_client"):
            host.object_client = ObjectStoreClient(
                self.sim,
                host.stack,
                host.storage_iface.ip,
                mss=self.cloud.params.mss,
                window=self.cloud.params.tcp_window,
            )

        def connect():
            return host.object_client.connect(server_ip, port)

        flow = yield from self._attach_spliced_flow(
            op="attach_object_session",
            tenant=tenant,
            vm=vm,
            host=host,
            middleboxes=middleboxes,
            cookie=f"storm-obj:{vm.name}:{server_ip}:{port}",
            target_ip=server_ip,
            port=port,
            volume_name=f"objstore://{server_ip}:{port}",
            connect=connect,
            ingress_host=ingress_host,
            egress_host=egress_host,
            detail={"vm": vm.name, "server": server_ip},
        )
        return flow

    # -- policy-driven deployment ---------------------------------------------

    def deploy_policy(
        self,
        policy: TenantPolicy,
        ingress_host: Optional[ComputeHost] = None,
        egress_host: Optional[ComputeHost] = None,
    ):
        """Process: provision everything a tenant policy asks for —
        all of it or none: if any box or chain fails, the flows this
        call attached are detached and the boxes it provisioned are
        returned to their hosts before the error propagates."""
        policy.validate()
        tenant = self.cloud.tenants.get(policy.tenant)
        if tenant is None:
            raise PolicyError(f"unknown tenant {policy.tenant!r}")
        vms = [self._find_vm(chain_policy.vm) for chain_policy in policy.chains]
        provisioned: dict[str, MiddleBox] = {}
        flows: list[StorMFlow] = []
        try:
            for spec in policy.services:
                provisioned[spec.name] = self.provision_middlebox(tenant, spec)
            for chain_policy, vm in zip(policy.chains, vms):
                flow = yield self.sim.process(
                    self.attach_with_services(
                        tenant,
                        vm,
                        chain_policy.volume,
                        [provisioned[name] for name in chain_policy.chain],
                        ingress_host=ingress_host,
                        egress_host=egress_host,
                    )
                )
                flows.append(flow)
        except ControllerCrashed:
            raise  # the controller is down; recovery settles the saga
        except Exception:
            for flow in reversed(flows):
                self.detach(flow)
            for mb in provisioned.values():
                self.deprovision_middlebox(mb)
            raise
        return flows

    def _find_vm(self, vm_name: str) -> VirtualMachine:
        for host in self.cloud.compute_hosts.values():
            if vm_name in host.vms:
                return host.vms[vm_name]
        raise PolicyError(f"unknown VM {vm_name!r}")

    # -- on-demand scaling (fwd-mode chains) --------------------------------------

    def reconfigure_chain(self, flow: StorMFlow, middleboxes: list[MiddleBox]) -> None:
        """Add/remove middle-boxes on an existing flow by reprogramming
        the SDN switches (paper §III-A).  Restricted to forwarding-mode
        chains: active relays hold per-flow TCP state.

        The swap is make-before-break: the new rule generation is
        staged (installed at a shadowing priority) before the old one
        is retired, so no step boundary — and hence no controller-crash
        point — leaves the flow without a complete rule set."""
        for mb in list(flow.middleboxes) + list(middleboxes):
            if mb.relay_mode is RelayMode.ACTIVE:
                raise PolicyError(
                    "cannot reconfigure a chain containing active-relay "
                    "middle-boxes on a live flow"
                )
        chain = flow.chain
        old_middleboxes = list(flow.middleboxes)
        state: dict = {}

        def do_stage():
            state["retired"] = chain.stage(middleboxes=list(middleboxes))
            return state["retired"]

        def undo_stage():
            if "retired" in state:
                chain.unstage(state["retired"], old_middleboxes)

        def do_retire():
            chain.retire(state["retired"])

        def do_update():
            self._untrack_flow(flow)
            flow.middleboxes = list(middleboxes)
            self._track_flow(flow)
            self._register_flow_chain(flow)

        saga = self.engine.begin(
            "reconfigure_chain",
            flow.cookie,
            [
                SagaStep("stage-rules", do=do_stage, undo=undo_stage, pivot=True,
                         locked=False, store="retired"),
                SagaStep("retire-old-rules", do=do_retire, locked=False),
                SagaStep("update-flow", do=do_update, locked=False),
            ],
            state=state,
            chain=[mb.name for mb in middleboxes],
        )
        self.engine.run_now(saga)

    def detach(self, flow: StorMFlow) -> None:
        """Tear down a flow: close the session, remove its rules, and
        notify its services.  Idempotent — a double detach is a no-op —
        and crash-safe: the first step is the pivot, so a controller
        crash mid-detach always rolls forward to a complete teardown."""
        if flow.detached:
            return

        def do_close():
            if flow.session is not None and flow.session.alive:
                flow.session.close()

        def do_remove_rules():
            flow.chain.remove()

        def do_unregister():
            if flow in self.flows:
                self.flows.remove(flow)
            if not flow.detached:
                flow.detached = True
                self._untrack_flow(flow)
                self._unregister_flow_chain(flow)
                for mb in flow.middleboxes:
                    if mb.service is not None:
                        mb.service.on_volume_detached(flow)

        def do_evict():
            # Per-flow state first: the conntrack entries this attach
            # pinned on the host and both gateways.  Every call here is
            # idempotent, so saga replay after a crash is safe.
            if flow.host is not None:
                forget_attach_conntrack(
                    flow.host,
                    flow.gateways,
                    flow.target_ip,
                    flow.src_port,
                    port=flow.chain.service_port,
                )
                self.attributor.forget(
                    flow.host.storage_iface.ip, flow.src_port
                )
            # Then tenant-wide state, once the last flow is gone and no
            # attach is mid-saga: the per-tenant metrics scope and the
            # gateway pair itself.
            if (
                self.tenant_flow_count(flow.tenant_name) == 0
                and not self._tenant_pending.get(flow.tenant_name)
            ):
                if self.obs is not None:
                    self.obs.release_scope(flow.tenant_name)
                self.release_gateways(flow.tenant_name)

        steps = [
            # the pivot is first on purpose: a mid-detach crash must
            # finish the teardown, never reopen the session
            SagaStep("close-session", do=do_close, pivot=True, locked=False,
                     forward_only=True),
            SagaStep("remove-rules", do=do_remove_rules, locked=False),
            SagaStep("unregister-flow", do=do_unregister, locked=False),
        ]
        if self.evict_detached:
            # past the pivot and pure cleanup: never compensated
            steps.append(
                SagaStep("evict-state", do=do_evict, locked=False,
                         forward_only=True)
            )
        saga = self.engine.begin(
            "detach",
            flow.cookie,
            steps,
            vm=flow.vm_name,
            volume=flow.volume_name,
        )
        self.engine.run_now(saga)
