"""Middle-box VMs and the storage-service API.

A middle-box is a minimal VM provisioned by the provider but running
tenant-defined service logic.  The only in-guest network configuration
is IP forwarding (paper §III-A).  Services implement
:class:`StorageService`: per-PDU processing with simulated CPU cost,
optional payload transformation, or — for services like replication —
full takeover of command handling.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.cloud.cpu import CpuMeter
from repro.net.stack import Node
from repro.sim import Simulator

if TYPE_CHECKING:
    from repro.cloud.tenant import Tenant


class StorageService:
    """Base class for tenant-defined middle-box services.

    Subclasses override :meth:`transform_upstream` /
    :meth:`transform_downstream` for per-PDU payload rewriting (e.g.
    encryption), or :meth:`process` for full control of forwarding
    (e.g. replication's fan-out and read striping).  ``cpu_per_byte``
    is the simulated CPU cost charged on the middle-box vCPUs.
    """

    name = "storage-service"
    cpu_per_byte: float = 0.0
    #: True = this service rewrites PDU payloads in flight (ciphers).
    #: The integrity layer then re-stamps the payload MAC under the
    #: hop's key as the PDU leaves the middle-box, so endpoints verify
    #: the transformed bytes instead of flagging a false tamper.
    transforms_payload: bool = False
    #: True = the active relay must buffer a whole PDU before calling
    #: :meth:`process` (no cut-through), so the service can still drop
    #: it or answer with ``ctx.reply`` — needed by gatekeeping services
    #: like access control.  Costs the pipelining benefit on large PDUs.
    requires_full_pdu: bool = False

    def __init__(self):
        self.middlebox: Optional["MiddleBox"] = None
        self.pdus_processed = 0
        #: observability bus hook — services record per-op counters
        #: scoped by tenant when set; None = no overhead.
        self.obs = None

    def attach(self, middlebox: "MiddleBox") -> None:
        self.middlebox = middlebox

    # -- default pipeline ------------------------------------------------

    def process(self, pdu, direction: str, ctx) -> None:
        """Process one PDU; ``direction`` is "upstream" (toward storage)
        or "downstream" (toward the VM).  ``ctx`` is a
        :class:`~repro.core.relay.RelayContext`: call ``ctx.forward(pdu)``
        to continue along the chain or ``ctx.reply(pdu)`` to answer the
        sender directly (active relay only).  The relay has already
        billed the PDU's per-byte CPU (it charges per chunk as segments
        arrive).  Default: apply the transform, forward."""
        self.pdus_processed += 1
        if direction == "upstream":
            pdu = self.transform_upstream(pdu)
        else:
            pdu = self.transform_downstream(pdu)
        if pdu is not None:
            ctx.forward(pdu)

    def transform_upstream(self, pdu):
        return pdu

    def transform_downstream(self, pdu):
        return pdu

    def on_volume_attached(self, volume, flow) -> None:
        """Called by the platform once the spliced attach completes —
        the point where StorM supplies the initial filesystem view to
        services that need one (paper §III-C)."""

    def on_volume_detached(self, flow) -> None:
        """Symmetric teardown notification: called exactly once when
        the platform detaches a flow this service was chained on —
        the hook for flushing caches or releasing per-flow state."""


class NoopService(StorageService):
    """Forwards unchanged — used for the MB-FWD/API overhead baselines."""

    name = "noop"


class MiddleBox(Node):
    """A middle-box VM: one instance-network NIC, metered vCPUs."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        tenant: "Tenant",
        vcpus: int = 2,
        memory_mb: int = 4096,
    ):
        super().__init__(sim, name)
        self.tenant = tenant
        self.vcpus = vcpus
        self.memory_mb = memory_mb
        self.cpu = CpuMeter(sim, f"{name}.cpu", cores=vcpus)
        self.service: Optional[StorageService] = None
        self.relay = None  # PassiveRelay/ActiveRelay instance, if any
        self.relay_mode = None  # RelayMode, set at provisioning
        self.host_name: Optional[str] = None
        #: tenant name of the scaling pool a committed provision or adopt
        #: step marked this box for (:mod:`repro.core.scaling`); None = no pool
        self.pool: Optional[str] = None
        #: attach cookie of the one attachment a passive or active box
        #: serves for life (set by the platform); None = unbound or ``fwd``
        self.attachment: Optional[str] = None

    @property
    def instance_iface(self):
        if not self.interfaces:
            raise RuntimeError(f"middle-box {self.name} has no NIC yet")
        return self.interfaces[0]

    @property
    def mac(self) -> str:
        return self.instance_iface.mac

    @property
    def ip(self) -> str:
        return self.instance_iface.ip

    def install_service(self, service: StorageService) -> None:
        self.service = service
        service.attach(self)
