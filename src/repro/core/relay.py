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
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from typing import Callable, Optional

from repro.cloud.params import CloudParams
from repro.core.middlebox import MiddleBox
from repro.iscsi.pdu import ISCSI_PORT, LoginRequestPdu, ScsiCommandPdu, ScsiResponsePdu
from repro.net.nat import NatRule
from repro.net.packet import Packet
from repro.net.tcp import ConnectionReset, EOF, RESET, TcpListener, TcpSegment, TcpSocket
from repro.sim import Simulator


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
    stored_at: float
    #: (vm-side remote_ip, remote_port) — identifies the flow, so a
    #: middle-box restart can replay exactly this flow's entries on the
    #: re-established pair (NVM survives the crash)
    flow: tuple = ()


@dataclass
class RelayPair:
    """One spliced connection: VM-side server socket, storage-side
    pseudo-client.  ``client`` is replaced on downstream recovery."""

    server: TcpSocket
    client: TcpSocket
    reconnects: int = 0
    closed: bool = False  # the VM side ended the flow; no recovery
    #: the relay itself reset the VM side (downstream unrecoverable) —
    #: the journal is kept, unlike a genuine VM-initiated close
    abandoned: bool = False
    login_pdu: object = None  # remembered for session re-establishment


class ActiveRelay:
    """Split-TCP relay with immediate ACKs and an NVM journal.

    If the downstream (storage-side) connection fails and
    ``recover_downstream`` is on, the relay reconnects the
    pseudo-client — the existing gateway conntrack state still maps
    the same 4-tuple — and *replays* every journaled upstream PDU the
    next hop never acknowledged, in arrival order.  Duplicate writes
    are idempotent (same offset/payload) and duplicate responses are
    dropped by the initiator's task-tag table.
    """

    _entry_ids = itertools.count(1)

    def __init__(
        self,
        sim: Simulator,
        middlebox: MiddleBox,
        egress_ip: str,
        params: CloudParams,
        egress_port: int = ISCSI_PORT,
        cookie: Optional[str] = None,
        recover_downstream: bool = True,
        max_reconnects: int = 3,
        reconnect_delay: float = 0.05,
    ):
        self.sim = sim
        self.middlebox = middlebox
        self.egress_ip = egress_ip
        self.egress_port = egress_port
        self.params = params
        self.cookie = cookie or f"active-relay:{middlebox.name}"
        self.recover_downstream = recover_downstream
        self.max_reconnects = max_reconnects
        self.reconnect_delay = reconnect_delay
        #: optional :class:`repro.obs.EventLog` for recovery timelines
        self.event_log = None
        #: observability bus hook: when set, relayed PDUs run under
        #: spans and NVM journal transitions emit events.  None = off.
        self.obs = None
        #: :class:`repro.integrity.IntegrityLayer` — when set, every
        #: forwarded PDU gets this hop's traversal mark stamped at
        #: egress (crash replays re-send already-stamped journal
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
        #: task_tag -> entry_id for journaled upstream commands, so the
        #: matching downstream response retires the right entry
        self._command_entries: dict[int, int] = {}
        self.nvm_peak = 0
        self.pdus_relayed = 0
        self.pdus_replayed = 0
        self.pairs: list[RelayPair] = []
        # REDIRECT: flows addressed to the egress gateway land on the
        # local pseudo-server instead (PREROUTING only — the
        # pseudo-client's own connects toward egress must not loop back)
        middlebox.stack.nat.install(
            NatRule(
                match_dst_ip=egress_ip,
                match_dst_port=egress_port,
                dnat_ip=middlebox.ip,
                hook="prerouting",
                cookie=self.cookie,
            )
        )
        self.listener = TcpListener(
            sim,
            middlebox.stack,
            middlebox.ip,
            egress_port,
            mss=params.mss,
            window=params.tcp_window,
            reliable=params.tcp_reliable,
            rto=params.tcp_rto,
            max_retransmits=params.tcp_max_retransmits,
        )
        self.listener.express_label = f"relay:{middlebox.name}"
        sim.process(self._accept_loop(), name=f"active-relay:{middlebox.name}")

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
            reliable=self.params.tcp_reliable,
            rto=self.params.tcp_rto,
            max_retransmits=self.params.tcp_max_retransmits,
        )
        socket.express_label = f"relay:{self.middlebox.name}"
        return socket

    def _log(self, kind: str, **detail) -> None:
        if self.event_log is not None:
            self.event_log.record(self.sim.now, kind, self.middlebox.name, **detail)

    def _relay_pair(self, server_sock: TcpSocket):
        from repro.sim import Store

        # capture chunks from the VM side immediately — data may follow
        # the handshake before the onward connection is up
        up_queue = Store(self.sim)
        server_sock.chunk_listener = lambda segment: up_queue.put(("chunk", segment))
        self.sim.process(self._sentinel_watcher(server_sock, up_queue))
        client_sock = self._new_client_socket(server_sock)
        try:
            yield client_sock.connect(self.egress_ip, self.egress_port)
        except ConnectionReset:
            # next hop unreachable: refuse the flow so the VM side can
            # run its own recovery instead of waiting forever
            self._log("relay.connect-failed")
            if server_sock.state == "established":
                server_sock.reset()
            return
        pair = RelayPair(server_sock, client_sock)
        self.pairs.append(pair)
        self.sim.process(self._pump(up_queue, server_sock, pair, "upstream"))
        self._start_downstream_pump(pair)

    def _start_downstream_pump(self, pair: RelayPair) -> None:
        from repro.sim import Store

        down_queue = Store(self.sim)
        pair.client.chunk_listener = lambda segment: down_queue.put(("chunk", segment))
        self.sim.process(self._sentinel_watcher(pair.client, down_queue))
        self.sim.process(self._pump(down_queue, pair.client, pair, "downstream"))

    def _dst_socket(self, pair: RelayPair, direction: str) -> TcpSocket:
        """Resolved at send time: recovery may swap ``pair.client``."""
        return pair.client if direction == "upstream" else pair.server

    def _src_socket(self, pair: RelayPair, direction: str) -> TcpSocket:
        return pair.server if direction == "upstream" else pair.client

    def _pump(self, queue, src: TcpSocket, pair: RelayPair, direction: str):
        """Cut-through relay loop for one direction.

        Data arrives one TCP segment at a time (``chunk_listener``):
        single-segment PDUs take the classic receive→process→forward
        path; multi-segment PDUs are *streamed* — each received chunk
        is credited to an outgoing copy immediately after the service's
        per-byte CPU charge, so a large write pipelines through the
        middle-box instead of being stored and forwarded whole.  The
        final chunk carries the PDU object, which the service may
        transform before it is attached to the outgoing stream.
        """
        service = self.middlebox.service
        streams: dict[int, tuple] = {}  # message_id -> (handle, entry, socket)
        while True:
            kind, payload = yield queue.get()
            if kind == "ctrl":
                if (
                    payload is RESET
                    and direction == "downstream"
                    and self.recover_downstream
                    and not pair.closed
                    and pair.reconnects < self.max_reconnects
                ):
                    self.sim.process(self._recover(pair))
                    return  # a fresh downstream pump starts on success
                other = self._dst_socket(pair, direction)
                if direction == "upstream":
                    pair.closed = True  # the VM ended the flow
                    if not pair.abandoned:
                        self._drop_flow_entries(
                            (pair.server.remote_ip, pair.server.remote_port)
                        )
                if payload is RESET and other.state == "established":
                    if direction == "downstream":
                        pair.abandoned = True
                    other.reset()
                if payload is EOF:
                    other.close()
                if service is not None:
                    service.on_flow_closed("reset" if payload is RESET else "eof")
                return
            if kind == "msg":
                # a whole message that arrived before the chunk listener
                # was installed (e.g. the login PDU during attach)
                yield from self._relay_whole(payload[0], pair, direction, service)
                continue
            segment = payload
            if service is not None and service.cpu_per_byte and segment.length:
                # processing happens off the ACK path but before forwarding
                yield from self.middlebox.cpu.consume(
                    service.cpu_per_byte * segment.length
                )
            if segment.message_size <= segment.length and segment.message_id not in streams:
                yield from self._relay_whole(segment.message, pair, direction, service)
                continue
            yield from self._relay_chunk(segment, pair, direction, service, streams)

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

    def _drop_flow_entries(self, flow) -> None:
        """The VM side ended the flow: nobody is waiting for these."""
        for entry in [e for e in self.nvm.values() if e.flow == flow]:
            self.nvm.pop(entry.entry_id, None)
            if isinstance(entry.pdu, ScsiCommandPdu):
                self._command_entries.pop(entry.pdu.task_tag, None)

    def _relay_whole(self, pdu, pair: RelayPair, direction, service):
        is_login = direction == "upstream" and isinstance(pdu, LoginRequestPdu)
        if is_login:
            pair.login_pdu = pdu  # needed again if the downstream leg fails
        if direction == "downstream" and isinstance(pdu, ScsiResponsePdu):
            self._retire_command(pdu)
        flow = (pair.server.remote_ip, pair.server.remote_port)
        entry = NvmEntry(next(self._entry_ids), pdu, direction, self.sim.now, flow)
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
            yield from service.process(pdu, direction, ctx, charged=True)
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
        if is_login and len(self.nvm) > 1:
            # a login on a flow with older journal entries means the
            # middle-box restarted: replay what the crash interrupted
            self._replay_stale(pair, entry.entry_id, flow)

    def _relay_chunk(self, segment, pair: RelayPair, direction, service, streams):
        buffered = service is not None and service.requires_full_pdu
        state = streams.get(segment.message_id)
        if state is None:
            flow = (pair.server.remote_ip, pair.server.remote_port)
            entry = NvmEntry(next(self._entry_ids), None, direction, self.sim.now, flow)
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
                    self.sim.process(
                        self._discard_when_delivered(dst, handle.message_id, entry.entry_id)
                    )
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
        if handle is None and opened_on is not None:
            # journal-only mode: the socket was already dead when the
            # stream opened — keep the transformed PDU journaled; the
            # send fails quietly and recovery replays it
            transformed = self._transform_only(pdu, direction, service)
            self._hop_stamp(transformed)
            entry.pdu = transformed
            self._track_command(entry)
            self._send_tracked_safe(self._dst_socket(pair, direction), transformed, entry)
            return
        if handle is None:
            # buffered mode: full classic processing (forward or reply)
            ctx = self._make_context(entry, pair, direction)
            yield from service.process(pdu, direction, ctx, charged=True)
            if not ctx.consumed:
                self.nvm.pop(entry.entry_id, None)
            else:
                self._track_command(entry)
            return
        if opened_on.state == "reset":
            # the outgoing socket died mid-stream; journal the completed
            # PDU — recovery replays it on the fresh connection
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
            yield from service.process(pdu, direction, ctx, charged=True)
            if not handle.finished:
                # service neither forwarded nor transformed: pass through
                finish_streamed(pdu)
        else:
            finish_streamed(pdu)
        # journal what actually went on the wire, so a replay after a
        # crash re-sends the transformed PDU
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

    def _sentinel_watcher(self, src: TcpSocket, queue):
        while True:
            got = yield src.recv()
            if got is RESET or got is EOF:
                queue.put(("ctrl", got))
                return
            # a full message delivered before the chunk listener existed
            queue.put(("msg", got))

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
        self.sim.process(self._discard_when_delivered(socket, message_id, entry.entry_id))

    def _discard_when_delivered(self, socket: TcpSocket, message_id: int, entry_id: int):
        yield socket.when_delivered(message_id)
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

    def _replay_stale(self, pair: RelayPair, login_entry_id: int, flow) -> None:
        """Middle-box crash recovery: the journal is NVM, so entries
        written before a crash survive the restart.  When the VM-side
        session logs back in on the same 4-tuple, replay that flow's
        un-ACKed upstream PDUs on the fresh pair (in arrival order,
        right behind the just-forwarded login) and drop its stale
        downstream/login entries — the re-executed commands regenerate
        the responses, and duplicates are absorbed by idempotent
        writes plus the initiator's task-tag table."""
        replayed = 0
        for entry in list(self.nvm.values()):
            if entry.entry_id >= login_entry_id or entry.flow != flow:
                continue
            if (
                entry.direction != "upstream"
                or entry.pdu is None
                or isinstance(entry.pdu, LoginRequestPdu)
            ):
                self.nvm.pop(entry.entry_id, None)
                continue
            self.pdus_replayed += 1
            replayed += 1
            self._send_tracked_safe(pair.client, entry.pdu, entry)
        if replayed:
            self._log("relay.replay-stale", replayed=replayed)
            if self.obs is not None:
                self.obs.event("nvm.replay", target=self.middlebox.name,
                               count=replayed, reason="restart")

    # -- downstream failure recovery --------------------------------------

    def _recover(self, pair: RelayPair):
        """Reconnect the pseudo-client and replay unacknowledged PDUs.

        The gateways' conntrack entries key on the 4-tuple, which the
        fresh connection reuses, so no control-plane action is needed.
        """
        while pair.reconnects < self.max_reconnects:
            pair.reconnects += 1
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
            return
        # recovery exhausted: tear the flow down toward the VM
        self._log("relay.gave-up", reconnects=pair.reconnects)
        if pair.server.state == "established":
            pair.abandoned = True
            pair.server.reset()

    def shutdown(self) -> None:
        self.middlebox.stack.nat.remove_by_cookie(self.cookie)
        self.listener.shutdown()
