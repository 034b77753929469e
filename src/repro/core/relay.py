"""The middle-box packet interception API (paper §III-B).

Two designs, as evaluated in the paper:

- :class:`PassiveRelay` — a netfilter-style hook on the middle-box's
  FORWARD path.  Every data packet pays a kernel→user copy and the
  service's per-byte processing *inline*, delaying the packet (and,
  through ACK clocking, the sender).
- :class:`ActiveRelay` — the paper's contribution.  The middle-box NATs
  the flow to a local *pseudo-server*, terminating TCP, so data packets
  are ACKed immediately (one hop instead of the full path).  A
  *pseudo-client* re-originates the flow toward the next hop, binding
  the same source port so the Fig. 3 steering rules keep matching.
  Received PDUs are journaled in simulated NVM until the next hop ACKs
  them, preserving consistency across the split.

A box relays one attachment for its whole life (the platform refuses a
second), so the journal is that one flow's and needs no flow key.
"""

from __future__ import annotations

import enum
import itertools
from collections import deque
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Optional

from repro.cloud.params import CloudParams
from repro.core.middlebox import MiddleBox
from repro.iscsi.pdu import ISCSI_PORT, LoginRequestPdu, ScsiCommandPdu, ScsiResponsePdu
from repro.net.nat import NatRule
from repro.net.packet import Packet
from repro.net.tcp import ConnectionReset, EOF, RESET, TcpListener, TcpSegment, TcpSocket
from repro.sim import Event, Simulator


class RelayMode(str, enum.Enum):
    FWD = "fwd"            # pure IP forwarding, no interception
    PASSIVE = "passive"    # in-path hook, per-packet copies
    ACTIVE = "active"      # split TCP, immediate ACK


@dataclass
class RelayContext:
    """Handed to a service for each PDU."""

    direction: str
    forward: Callable[[object], None]
    reply: Callable[[object], None]
    consumed: bool = False


class PassiveRelay:
    """FORWARD-chain hook: copies and processes packets in-path."""

    def __init__(self, sim: Simulator, middlebox: MiddleBox, params: CloudParams):
        self.sim = sim
        self.middlebox = middlebox
        self.params = params
        self.packets_copied = 0
        #: observability bus hook; None = uninstrumented fast path
        self.obs = None
        #: :class:`repro.integrity.IntegrityLayer` — when set, every
        #: relayed PDU gets this hop's traversal mark.  None = off.
        self.integrity = None
        #: adversarial egress hook (repro.faults RelayAdversary): a
        #: compromised middle-box mutating PDUs *after* stamping.
        self.adversary = None
        middlebox.stack.forward_hook = self._hook

    def _hook(self, packet: Packet):
        segment = packet.payload
        if not isinstance(segment, TcpSegment) or segment.kind != "data":
            return
        self.packets_copied += 1
        obs = self.obs
        span = None
        if obs is not None:
            obs.metrics.counter("relay.passive_copies", self.middlebox.name).inc()
            if packet.ctx is not None:
                span = obs.span(
                    "relay.passive", parent=packet.ctx,
                    target=self.middlebox.name, bytes=segment.length,
                )
        # one syscall-and-copy per packet — the cost the paper measures
        yield from self.middlebox.cpu.consume(self.params.passive_copy_cost)
        service = self.middlebox.service
        if service is not None:
            cost = service.cpu_per_byte * segment.length
            if cost:
                yield from self.middlebox.cpu.consume(cost)
        if segment.is_last and segment.message is not None:
            direction = "upstream" if packet.dst_port == ISCSI_PORT else "downstream"
            if service is not None:
                service.pdus_processed += 1
                if direction == "upstream":
                    segment.message = service.transform_upstream(segment.message)
                else:
                    segment.message = service.transform_downstream(segment.message)
            if self.integrity is not None:
                self.integrity.hop_process(
                    segment.message,
                    self.middlebox.name,
                    transformed=service is not None and service.transforms_payload,
                )
            if self.adversary is not None:
                out = self.adversary.on_egress(
                    segment.message, direction, None, streamed=True
                )
                if out is not None:
                    segment.message = out
        if span is not None:
            span.finish()


@dataclass
class NvmEntry:
    entry_id: int
    pdu: object
    direction: str


@dataclass
class RelayPair:
    """One spliced connection: VM-side server socket, storage-side
    pseudo-client.  ``client`` is replaced on downstream recovery."""

    server: TcpSocket
    client: TcpSocket
    reconnects: int = 0
    #: pumps still running, a recovery in progress counting as the
    #: downstream pump it replaces: a closed pair leaves
    #: :attr:`ActiveRelay.pairs` when this reaches zero
    pumps: int = 0
    closed: bool = False  # the VM side ended the flow; no recovery
    login_pdu: object = None  # remembered for session re-establishment


class _Pump:
    """One direction of a relay pair, run by callbacks (no process).

    Data segments (the source socket's ``chunk_listener``), whole
    messages and the RESET/EOF sentinel (its receive queue) are relayed
    in arrival order.  A segment that needs the service's CPU holds the
    pump until its slot ends, so each slot is claimed at ``max(arrival,
    previous item's end)``: one direction never overlaps itself on a
    multi-core box.  Multi-segment PDUs are *streamed*: each chunk is
    credited to an outgoing copy once processed, so a large write
    pipelines through the box; the final chunk carries the PDU, which
    the service may transform before it is attached to the stream.
    """

    __slots__ = ("relay", "pair", "direction", "service", "items", "busy", "streams")

    def __init__(self, relay: "ActiveRelay", pair: RelayPair, direction: str) -> None:
        self.relay = relay
        self.pair = pair
        self.direction = direction
        self.service = relay.middlebox.service
        self.items: deque[Any] = deque()
        self.busy = True  # a segment holds the CPU; or not run yet, or ended
        #: message_id -> (handle, entry, socket) of multi-segment PDUs
        self.streams: dict[int, tuple] = {}
        src = relay._src_socket(pair, direction)
        src.chunk_listener = self.push
        src.recv().callbacks.append(self._on_recv)

    def push(self, item: Any) -> None:
        self.items.append(item)
        if not self.busy:
            self.run()

    def _on_recv(self, event: Event) -> None:
        self.push(event.value)
        if event.value is not RESET and event.value is not EOF:
            # a whole message delivered before the chunk listener existed
            self.relay._src_socket(self.pair, self.direction).recv().callbacks.append(self._on_recv)

    def run(self, segment: Optional[TcpSegment] = None) -> None:
        """Relay ``segment`` (whose CPU slot just ended), then queued
        items in arrival order until one needs the CPU."""
        self.busy = True
        relay, pair, direction, service = self.relay, self.pair, self.direction, self.service
        items = self.items
        while True:
            if segment is not None:
                streams = self.streams
                if segment.message_size <= segment.length and segment.message_id not in streams:
                    relay._relay_whole(segment.message, pair, direction, service)
                else:
                    relay._relay_chunk(segment, pair, direction, service, streams)
            if not items:
                self.busy = False
                return
            item = items.popleft()
            if item.__class__ is TcpSegment:
                segment = item
                if service is not None and service.cpu_per_byte and segment.length:
                    # off the ACK path but before forwarding: run() again at the slot's end
                    cost = service.cpu_per_byte * segment.length
                    relay.middlebox.cpu.charge(cost, self.run, segment)
                    return
                continue
            segment = None
            if item is RESET or item is EOF:
                relay._pump_ended(pair, direction, item)
                return  # busy for good: nothing runs this pump again
            # a whole message, e.g. the login PDU during attach
            relay._relay_whole(item[0], pair, direction, service)


class ActiveRelay:
    """Split-TCP relay with immediate ACKs and an NVM journal.

    If the downstream (storage-side) connection fails, the relay
    reconnects the pseudo-client — the existing gateway conntrack state
    still maps the same 4-tuple — and *replays* every journaled upstream
    PDU the next hop never acknowledged, in arrival order.  Duplicate writes
    are idempotent (same offset/payload) and duplicate responses are
    dropped by the initiator's task-tag table.  That replay is the
    journal's only reader.  Every end of a pair's VM side — the VM's
    close, a box crash's local reset, or the relay giving up on the
    storage leg — empties the journal (:meth:`clear_journal`), as does
    the platform's detach: the initiator's re-login re-issues whatever
    it never saw answered, so nothing stale is ever replayed.
    """

    def __init__(
        self,
        sim: Simulator,
        middlebox: MiddleBox,
        egress_ip: str,
        params: CloudParams,
        egress_port: int = ISCSI_PORT,
        max_reconnects: int = 3,
        reconnect_delay: float = 0.05,
    ):
        self.sim = sim
        self.middlebox = middlebox
        self.egress_port = egress_port
        self.params = params
        self.cookie = f"redirect:{middlebox.name}"
        self.max_reconnects = max_reconnects
        self.reconnect_delay = reconnect_delay
        #: observability bus hook: when set, relayed PDUs run under
        #: spans, and NVM journal transitions and ``relay.*`` recovery
        #: steps emit events.  None = off.
        self.obs = None
        #: :class:`repro.integrity.IntegrityLayer` — when set, every
        #: forwarded PDU gets this hop's traversal mark stamped at
        #: egress (recovery replays re-send already-stamped journal
        #: entries and are *not* re-marked).  None = off.
        self.integrity = None
        #: adversarial egress hook (repro.faults RelayAdversary),
        #: applied after stamping: a compromised box tampering,
        #: replaying, or holding PDUs it relays.  None = off.
        self.adversary = None
        #: the NVM journal: PDUs received but not yet ACKed by next hop.
        #: For SCSI commands "ACKed" means *responded to* — a TCP ACK
        #: only proves the next hop's socket buffered the bytes, not
        #: that the target executed the command, so a crash between the
        #: two would lose a write the relay already ACKed to the VM.
        self.nvm: dict[int, NvmEntry] = {}
        self._entry_ids = itertools.count(1)
        #: task_tag -> entry_id for journaled upstream commands, so the
        #: matching downstream response retires the right entry
        self._command_entries: dict[int, int] = {}
        self.nvm_peak = 0
        self.pdus_relayed = 0
        self.pdus_replayed = 0
        #: reconnect attempts over every pair the box has served
        self.reconnects = 0
        #: pairs still open or still pumping; a closed pair is dropped
        #: once its last pump returns
        self.pairs: list[RelayPair] = []
        self.retarget(egress_ip)
        self.listener = TcpListener(
            sim,
            middlebox.stack,
            middlebox.ip,
            egress_port,
            mss=params.mss,
            window=params.tcp_window,
            rto=params.tcp_rto,
            max_retransmits=params.tcp_max_retransmits,
        )
        self.listener.express_label = f"relay:{middlebox.name}"
        sim.process(self._accept_loop(), name=f"active-relay:{middlebox.name}")

    def retarget(self, egress_ip: str) -> None:
        """REDIRECT: flows addressed to the egress gateway land on the
        local pseudo-server instead (PREROUTING only — the
        pseudo-client's own connects toward egress must not loop back).
        Re-run when the attachment returns through a re-created pair."""
        nat = self.middlebox.stack.nat
        nat.remove_by_cookie(self.cookie)
        self.egress_ip = egress_ip
        nat.install(
            NatRule(
                match_dst_ip=egress_ip,
                match_dst_port=self.egress_port,
                dnat_ip=self.middlebox.ip,
                hook="prerouting",
                cookie=self.cookie,
            )
        )

    # -- connection handling ---------------------------------------------

    def _accept_loop(self):
        while True:
            server_sock: TcpSocket = yield self.listener.accept()
            self.sim.process(
                self._relay_pair(server_sock), name=f"relay-pair:{self.middlebox.name}"
            )

    def _new_client_socket(self, server_sock: TcpSocket) -> TcpSocket:
        # pseudo-client: same source port so steering rules keep matching
        socket = TcpSocket(
            self.sim,
            self.middlebox.stack,
            local_ip=self.middlebox.ip,
            local_port=server_sock.remote_port,
            mss=self.params.mss,
            window=self.params.tcp_window,
            rto=self.params.tcp_rto,
            max_retransmits=self.params.tcp_max_retransmits,
        )
        socket.express_label = f"relay:{self.middlebox.name}"
        return socket

    def _log(self, kind: str, **detail) -> None:
        if self.obs is not None:
            self.obs.event(kind, target=self.middlebox.name, **detail)

    def _relay_pair(self, server_sock: TcpSocket):
        pair = RelayPair(server_sock, self._new_client_socket(server_sock), pumps=1)
        # capture chunks from the VM side immediately — data may follow
        # the handshake before the onward connection is up
        upstream = _Pump(self, pair, "upstream")
        try:
            yield pair.client.connect(self.egress_ip, self.egress_port)
        except ConnectionReset:
            # next hop unreachable: refuse the flow so the VM side can
            # run its own recovery instead of waiting forever
            self._log("relay.connect-failed")
            if server_sock.state == "established":
                server_sock.reset()
            return
        self.pairs.append(pair)
        # both pumps count before either runs: what already queued
        # upstream may end the flow
        self._start_downstream_pump(pair)
        upstream.run()

    def _start_downstream_pump(self, pair: RelayPair) -> None:
        pair.pumps += 1
        _Pump(self, pair, "downstream").run()

    def _pump_returned(self, pair: RelayPair) -> None:
        pair.pumps -= 1
        if pair.closed and not pair.pumps:
            self.pairs.remove(pair)

    def _dst_socket(self, pair: RelayPair, direction: str) -> TcpSocket:
        """Resolved at send time: recovery may swap ``pair.client``."""
        return pair.client if direction == "upstream" else pair.server

    def _src_socket(self, pair: RelayPair, direction: str) -> TcpSocket:
        return pair.server if direction == "upstream" else pair.client

    def _pump_ended(self, pair: RelayPair, direction: str, sentinel: object) -> None:
        """A direction's source socket reset or reached EOF: recover the
        downstream leg, or pass the end on and let the pump go."""
        if (
            sentinel is RESET
            and direction == "downstream"
            and not pair.closed
            and pair.reconnects < self.max_reconnects
        ):
            self.sim.process(self._recover(pair))
            return  # the recovery holds this pump's count
        other = self._dst_socket(pair, direction)
        if direction == "upstream":
            pair.closed = True  # the VM side ended the flow
            self.clear_journal()
        if sentinel is RESET and other.state == "established":
            other.reset()
        if sentinel is EOF:
            other.close()
        self._pump_returned(pair)

    def _track_command(self, entry: NvmEntry) -> None:
        """Journaled upstream commands are retired by their downstream
        response, not by the next hop's TCP ACK."""
        if entry.direction == "upstream" and isinstance(entry.pdu, ScsiCommandPdu):
            self._command_entries[entry.pdu.task_tag] = entry.entry_id

    def _retire_command(self, response: ScsiResponsePdu) -> None:
        entry_id = self._command_entries.pop(response.task_tag, None)
        if entry_id is not None:
            self.nvm.pop(entry_id, None)
            if self.obs is not None:
                self.obs.event(
                    "nvm.retire",
                    target=self.middlebox.name,
                    ctx=getattr(response, "ctx", None),
                    journal=len(self.nvm),
                )

    def clear_journal(self) -> None:
        """The box's one flow ended (its VM side ended, or the platform
        detached it): nobody is waiting for these entries.  Idempotent."""
        self.nvm.clear()
        self._command_entries.clear()

    def _relay_whole(self, pdu, pair: RelayPair, direction, service) -> None:
        if direction == "upstream" and isinstance(pdu, LoginRequestPdu):
            pair.login_pdu = pdu  # needed again if the downstream leg fails
        if direction == "downstream" and isinstance(pdu, ScsiResponsePdu):
            self._retire_command(pdu)
        entry = NvmEntry(next(self._entry_ids), pdu, direction)
        self.nvm[entry.entry_id] = entry
        self.nvm_peak = max(self.nvm_peak, len(self.nvm))
        self.pdus_relayed += 1
        obs = self.obs
        span = None
        if obs is not None:
            trace_ctx = getattr(pdu, "ctx", None)
            span = obs.span(
                "relay.active", parent=trace_ctx,
                target=self.middlebox.name, direction=direction,
            )
            span.event("nvm.append", target=self.middlebox.name,
                       journal=len(self.nvm))
            obs.metrics.counter("relay.pdus", self.middlebox.name).inc()
            obs.metrics.gauge("relay.nvm", self.middlebox.name).set(len(self.nvm))
        ctx = self._make_context(entry, pair, direction)
        if service is not None:
            svc_span = None
            if span is not None:
                svc_span = obs.span(f"service.{service.name}", parent=span,
                                    target=self.middlebox.name)
            service.process(pdu, direction, ctx)
            if svc_span is not None:
                svc_span.finish()
        else:
            ctx.forward(pdu)
        if span is not None:
            span.finish()
        if not ctx.consumed:
            self.nvm.pop(entry.entry_id, None)
        else:
            self._track_command(entry)

    def _relay_chunk(self, segment, pair: RelayPair, direction, service, streams) -> None:
        buffered = service is not None and service.requires_full_pdu
        state = streams.get(segment.message_id)
        if state is None:
            entry = NvmEntry(next(self._entry_ids), None, direction)
            self.nvm[entry.entry_id] = entry
            self.nvm_peak = max(self.nvm_peak, len(self.nvm))
            if self.obs is not None:
                self.obs.event(
                    "nvm.append",
                    target=self.middlebox.name,
                    ctx=getattr(segment.message, "ctx", None),
                    journal=len(self.nvm),
                )
                self.obs.metrics.counter("relay.pdus", self.middlebox.name).inc()
                self.obs.metrics.gauge("relay.nvm", self.middlebox.name).set(
                    len(self.nvm)
                )
            if buffered:
                # store-and-forward: no outgoing stream until the
                # service has ruled on the complete PDU (gatekeepers
                # like access control may drop it or reply instead)
                state = (None, entry, None)
            else:
                dst = self._dst_socket(pair, direction)
                try:
                    handle = dst.send_stream(segment.message_size)
                except ConnectionReset:
                    # the outgoing socket already died: journal-only
                    # mode — the completed PDU stays in NVM for replay
                    state = (None, entry, dst)
                else:
                    retire = partial(self._discard, entry.entry_id)
                    dst.when_delivered(handle.message_id).callbacks.append(retire)
                    state = (handle, entry, dst)
            streams[segment.message_id] = state
        handle, entry, opened_on = state
        if not segment.is_last:
            if handle is not None:
                handle.credit(segment.length)
            return
        del streams[segment.message_id]
        pdu = segment.message
        entry.pdu = pdu
        self.pdus_relayed += 1
        if handle is None and opened_on is None:
            # buffered mode: full classic processing (forward or reply)
            ctx = self._make_context(entry, pair, direction)
            service.process(pdu, direction, ctx)
            if not ctx.consumed:
                self.nvm.pop(entry.entry_id, None)
            else:
                self._track_command(entry)
            return
        if handle is None or opened_on.state == "reset":
            # the outgoing socket was dead when the stream opened, or
            # died mid-stream: keep the transformed PDU journaled; the
            # send fails quietly and recovery replays it
            transformed = self._transform_only(pdu, direction, service)
            self._hop_stamp(transformed)
            entry.pdu = transformed
            self._track_command(entry)
            self._send_tracked_safe(self._dst_socket(pair, direction), transformed, entry)
            return

        def finish_streamed(out_pdu) -> None:
            # stamp (and let the adversary tamper) at the moment the
            # message object is attached to the already-credited stream
            self._hop_stamp(out_pdu)
            out = self._adversary_egress(
                out_pdu, direction, self._dst_socket(pair, direction), streamed=True
            )
            handle.finish(out if out is not None else out_pdu)

        if service is not None:
            ctx = RelayContext(
                direction=direction,
                forward=finish_streamed,
                reply=self._reject_streamed_reply,
            )
            service.process(pdu, direction, ctx)
            if not handle.finished:
                # service neither forwarded nor transformed: pass through
                finish_streamed(pdu)
        else:
            finish_streamed(pdu)
        # journal what actually went on the wire, so a recovery replay
        # re-sends the transformed PDU
        entry.pdu = handle.message
        self._track_command(entry)

    def _hop_stamp(self, pdu) -> None:
        """Append this hop's traversal mark as the PDU leaves the box
        (after any service transform, so a re-stamped payload MAC
        covers what actually goes on the wire)."""
        layer = self.integrity
        if layer is not None:
            service = self.middlebox.service
            layer.hop_process(
                pdu,
                self.middlebox.name,
                transformed=service is not None and service.transforms_payload,
            )

    def _adversary_egress(self, pdu, direction, socket, streamed: bool):
        """A compromised middle-box's last word on an outgoing PDU:
        returns the (possibly tampered copy of the) PDU to send, or
        None when the adversary holds it for later re-injection
        (whole-PDU path only — streamed bytes are already committed)."""
        adversary = self.adversary
        if adversary is None:
            return pdu
        return adversary.on_egress(pdu, direction, socket, streamed)

    @staticmethod
    def _transform_only(pdu, direction, service):
        if service is None:
            return pdu
        if direction == "upstream":
            return service.transform_upstream(pdu)
        return service.transform_downstream(pdu)

    @staticmethod
    def _reject_streamed_reply(_pdu) -> None:
        raise RuntimeError(
            "reply() is not available for streamed (multi-segment) PDUs: "
            "their leading chunks were already forwarded cut-through"
        )

    def _make_context(self, entry: NvmEntry, pair: RelayPair, direction: str) -> RelayContext:
        def forward(out_pdu) -> None:
            ctx.consumed = True
            self._hop_stamp(out_pdu)
            dst = self._dst_socket(pair, direction)
            out = self._adversary_egress(out_pdu, direction, dst, streamed=False)
            if out is None:
                # held by the adversary; the journal keeps the stamped
                # PDU, and re-injection goes straight onto the socket
                entry.pdu = out_pdu
                return
            entry.pdu = out
            self._send_tracked_safe(dst, out, entry)

        def reply(out_pdu) -> None:
            ctx.consumed = True
            self._send_tracked_safe(self._src_socket(pair, direction), out_pdu, entry)

        ctx = RelayContext(direction=direction, forward=forward, reply=reply)
        return ctx

    def _send_tracked_safe(self, socket: TcpSocket, out_pdu, entry: NvmEntry) -> None:
        """Send with NVM tracking; a dead socket leaves the entry
        journaled for the recovery replay."""
        try:
            message_id = socket.send(out_pdu, out_pdu.wire_size)
        except ConnectionReset:
            return
        socket.when_delivered(message_id).callbacks.append(partial(self._discard, entry.entry_id))

    def _discard(self, entry_id: int, _delivered: Event) -> None:
        """Delivery callback: the peer ACKed the entry's whole message."""
        entry = self.nvm.get(entry_id)
        if entry is None:
            return
        if entry.direction == "upstream" and isinstance(entry.pdu, ScsiCommandPdu):
            return  # retired by the downstream response, not the TCP ACK
        self.nvm.pop(entry_id, None)
        if self.obs is not None:
            self.obs.event(
                "nvm.retire",
                target=self.middlebox.name,
                ctx=getattr(entry.pdu, "ctx", None),
                journal=len(self.nvm),
            )

    # -- downstream failure recovery --------------------------------------

    def _recover(self, pair: RelayPair):
        """Reconnect the pseudo-client and replay unacknowledged PDUs.

        The gateways' conntrack entries key on the 4-tuple, which the
        fresh connection reuses, so no control-plane action is needed.
        """
        while pair.reconnects < self.max_reconnects:
            pair.reconnects += 1
            self.reconnects += 1
            yield self.sim.timeout(self.reconnect_delay)
            self._log("relay.reconnect-attempt", attempt=pair.reconnects)
            client = self._new_client_socket(pair.server)
            try:
                established = client.connect(self.egress_ip, self.egress_port)
                result = yield self.sim.any_of(
                    [established, self.sim.timeout(1.0, "timeout")]
                )
            except ConnectionReset:
                continue
            if established not in result or client.state != "established":
                client.reset()
                continue
            pair.client = client
            self._start_downstream_pump(pair)
            # re-establish the iSCSI session, then replay journaled
            # upstream PDUs in arrival order (the duplicate login
            # response is ignored by the initiator)
            if pair.login_pdu is not None:
                try:
                    client.send(pair.login_pdu, pair.login_pdu.wire_size)
                except ConnectionReset:
                    continue
            # the journal dict is keyed by a monotone entry_id and only
            # ever appended to / popped from, so insertion order IS
            # arrival order — no need to sort on every reconnect
            replayed = 0
            for entry in list(self.nvm.values()):
                if entry.direction == "upstream" and entry.pdu is not None:
                    self.pdus_replayed += 1
                    replayed += 1
                    self._send_tracked_safe(client, entry.pdu, entry)
            self._log("relay.recovered", replayed=replayed)
            if self.obs is not None:
                self.obs.event("nvm.replay", target=self.middlebox.name,
                               count=replayed, reason="reconnect")
            self._pump_returned(pair)  # a fresh downstream pump took over
            return
        # recovery exhausted: tear the flow down toward the VM, whose
        # pump then empties the journal
        self._log("relay.gave-up", reconnects=pair.reconnects)
        if pair.server.state == "established":
            pair.server.reset()
        self._pump_returned(pair)

    def shutdown(self) -> None:
        self.middlebox.stack.nat.remove_by_cookie(self.cookie)
        self.listener.shutdown()
