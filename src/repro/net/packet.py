"""The packet model.

One flat header set (L2 + L3 + L4 merged) — the paper's NAT and SDN
rules match on exactly these fields (Fig. 3): MACs, IPs, ports,
protocol.  ``payload`` carries a higher-layer object (a TCP segment);
``size`` is the total on-wire size in bytes and is what links charge
for serialization.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from typing import Any, NamedTuple

#: L2/L3/L4 header bytes charged on every packet (Ethernet+IP+TCP).
HEADER_BYTES = 66

_packet_ids = itertools.count(1)


class FiveTuple(NamedTuple):
    """Connection identity as seen by NAT and attribution."""

    protocol: str
    src_ip: str
    src_port: int
    dst_ip: str
    dst_port: int

    def reversed(self) -> "FiveTuple":
        return FiveTuple(self.protocol, self.dst_ip, self.dst_port, self.src_ip, self.src_port)


@dataclass(slots=True)
class Packet:
    """A frame in flight.  Mutable: NAT and ``mod_dst_mac`` rewrite it."""

    src_mac: str
    dst_mac: str
    src_ip: str
    dst_ip: str
    src_port: int
    dst_port: int
    protocol: str = "tcp"
    size: int = HEADER_BYTES
    payload: Any = None
    packet_id: int = field(default_factory=lambda: next(_packet_ids))
    #: Names of nodes traversed, appended by each hop (used by tests and
    #: the steering verifier to prove which middle-boxes saw the flow).
    trace: list[str] = field(default_factory=list)
    #: Trace context (:class:`repro.obs.TraceContext`) propagated from
    #: the message this packet carries — joins per-hop events to the
    #: request's span tree.  None whenever instrumentation is off.
    ctx: Any = field(default=None, repr=False, compare=False)
    #: Express learner (:class:`repro.net.express.CompiledPath`) riding
    #: on the one segment that learns its flow's way: every element the
    #: packet crosses reports what it did with it.  None otherwise.
    plan: Any = field(default=None, repr=False, compare=False)

    @property
    def five_tuple(self) -> FiveTuple:
        return FiveTuple(self.protocol, self.src_ip, self.src_port, self.dst_ip, self.dst_port)

    def record_hop(self, node_name: str) -> None:
        self.trace.append(node_name)
        ctx = self.ctx
        if ctx is not None:
            ctx.hop(node_name, self)

    def copy(self) -> "Packet":
        """Independent copy (fresh id, shared payload object, copied trace)."""
        return replace(
            self,
            packet_id=next(_packet_ids),
            trace=list(self.trace),
        )

    def __repr__(self) -> str:  # compact for debugging
        return (
            f"Packet#{self.packet_id}({self.protocol} "
            f"{self.src_ip}:{self.src_port}->{self.dst_ip}:{self.dst_port} "
            f"dmac={self.dst_mac} {self.size}B)"
        )
