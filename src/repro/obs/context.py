"""Trace-context propagation.

A :class:`TraceContext` is the small immutable token carried on
in-flight objects — :class:`~repro.net.packet.Packet`\\ s, iSCSI PDUs,
SCSI commands — that ties everything a request touches into one causal
span tree.  The initiator opens a span per command and stamps
``command.ctx = span.context()``; the TCP layer copies the context
from message objects onto the packets that carry them; every node hop,
switch decision, relay stage, and target execution then attaches its
emission to the same trace.

The token is three words (bus, trace id, span id) and its propagation
costs one attribute copy per packet — with instrumentation off the
fields stay ``None`` and every emission site is a single identity
check.  A hop is the most frequent emission, so :meth:`hop` passes its
byte count straight to :meth:`~repro.obs.bus.ObsBus.hop`, which stores
one flat tuple and no dict.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:
    from repro.obs.bus import ObsBus, Span


class TraceContext:
    """Links an in-flight object to a span of its trace."""

    __slots__ = ("bus", "trace_id", "span_id")

    def __init__(self, bus: "ObsBus", trace_id: int, span_id: int):
        self.bus = bus
        self.trace_id = trace_id
        self.span_id = span_id

    def child(self, name: str, **attrs: Any) -> "Span":
        """Open a child span under this context's span."""
        return self.bus.span(name, parent=self, **attrs)

    def event(self, kind: str, target: str = "", **attrs: Any) -> None:
        """Emit a point event attached to this context."""
        self.bus.event(kind, target=target, trace_id=self.trace_id,
                       span_id=self.span_id, **attrs)

    def hop(self, node_name: str, packet: Any) -> None:
        """Record this packet traversing ``node_name`` — the per-hop
        timestamps the latency-breakdown tables are built from."""
        self.bus.hop(node_name, self.trace_id, self.span_id, packet.size)

    def __repr__(self) -> str:
        return f"TraceContext(trace={self.trace_id}, span={self.span_id})"
