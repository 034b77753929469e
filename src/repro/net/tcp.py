"""A windowed, ACK-clocked, loss-recovering TCP model.

Faithful to the properties StorM's active-relay exploits, cheap on
everything else: a fixed flow-control window, cumulative ACKs, a 3-way
handshake (which is what populates NAT conntrack during the atomic
volume attach), and RST for failure injection.

Throughput of a connection is window/RTT-bound exactly like real TCP,
which is the mechanism behind the paper's Figures 5–9: splitting one
long connection into two short ones at the middle-box shortens each
ACK loop and restores throughput.

Delivery is in order even when the fabric is not: loss injected by
:mod:`repro.faults`, or segments overtaking each other while a chain is
reprogrammed under live traffic.  The receive side is sequence-checked
(an out-of-order segment or a duplicate is dropped and the cumulative
ACK re-asserted), and the send side recovers by go-back-N
retransmission driven by a single lazy RTO timer with exponential
backoff, 3-dup-ACK fast retransmit, SYN retransmission, and black-hole
detection (``max_retransmits`` consecutive timeouts reset the
connection locally).  FIN is not retransmitted: teardown on a lossy
link eventually falls back to RST semantics, which every consumer in
this codebase already handles.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Optional, Union

from repro.sim import Event, Simulator, Store
from repro.net.packet import HEADER_BYTES, Packet
from repro.net.stack import NetworkStack

DEFAULT_MSS = 4096
DEFAULT_WINDOW = 65536


class ConnectionReset(Exception):
    """The peer sent RST (or the connection was torn down underneath)."""


#: Sentinel delivered to pending receivers on reset/close.
RESET = object()
EOF = object()


@dataclass(slots=True)
class TcpSegment:
    kind: str  # syn | syn-ack | ack | data | fin | rst
    seq: int = 0
    ack: int = 0
    length: int = 0
    message_id: int = 0
    message: Any = None
    message_size: int = 0
    is_last: bool = False


class StreamHandle:
    """An outgoing message whose bytes become available incrementally.

    The active relay forwards a large PDU chunk-by-chunk as it arrives
    (cut-through at segment granularity): each received chunk
    :meth:`credit`\\ s bytes to the outgoing copy, and :meth:`finish`
    attaches the (possibly transformed) message object carried by the
    final segment.  Either wakes the socket if its queue's head waits
    for this stream's bytes.
    """

    __slots__ = ("socket", "message_id", "total_size", "credited", "finished", "message")

    def __init__(self, socket: "TcpSocket", message_id: int, total_size: int) -> None:
        self.socket = socket
        self.message_id = message_id
        self.total_size = total_size
        self.credited = 0
        self.finished = False
        self.message: Any = None

    def credit(self, nbytes: int) -> None:
        self.credited = min(self.total_size, self.credited + nbytes)
        if self.socket._waiting is self:
            self.socket._wake()

    def finish(self, message: Any) -> None:
        self.message = message
        self.finished = True
        self.credited = self.total_size
        if self.socket._waiting is self:
            self.socket._wake()


#: a send queue entry: a whole ``(message_id, message, size)``, a stream, or a close
_Pending = Union[tuple[int, Any, int], StreamHandle, None]
_WINDOW = "window"  # the queue's head waits for an ACK (window, or the close's flush)
_WOKEN = "woken"  # the queue's drain is scheduled


class TcpSocket:
    """One endpoint of a connection, bound to a node's stack."""

    def __init__(
        self,
        sim: Simulator,
        stack: NetworkStack,
        local_ip: str,
        local_port: int,
        remote_ip: Optional[str] = None,
        remote_port: Optional[int] = None,
        mss: int = DEFAULT_MSS,
        window: int = DEFAULT_WINDOW,
        rto: float = 0.05,
        max_retransmits: int = 8,
    ) -> None:
        self.sim = sim
        self.stack = stack
        self.local_ip = local_ip
        self.local_port = local_port
        self.remote_ip = remote_ip
        self.remote_port = remote_port
        self.mss = mss
        self.window = window
        self.rto = rto
        self.max_retransmits = max_retransmits
        self.state = "closed"
        self.established_event: Event = sim.event()
        self._rx_store = Store(sim)
        # sender-side accounting: ``_head_sent`` bytes of the queue's head
        # are out; ``_head_chunk`` is the segment it was about to emit when
        # the window closed (sized while those bytes were there); ``_waiting``
        # is what wakes it (``_WINDOW``, the head stream, ``_WOKEN``, or None)
        self._pending: deque[_Pending] = deque()
        self._head_sent = 0
        self._head_chunk = 0
        self._waiting: Union[str, StreamHandle, None] = None
        self._sent_bytes = 0
        self._acked_bytes = 0
        # receiver-side accounting
        self._rx_bytes = 0
        self.bytes_sent = 0
        self.bytes_received = 0
        # delivery notification (peer ACKed a whole message) — used by
        # the active relay's NVM buffer to know when it may discard.
        # Thresholds are monotone (:meth:`_drain` records them in byte
        # order), so an ordered deque is popped from the left per ACK
        # instead of scanning every in-flight message.
        self._message_thresholds: deque[tuple[int, int]] = deque()  # (threshold, id)
        self._threshold_by_id: dict[int, int] = {}
        self._delivery_events: dict[int, Event] = {}
        #: when set, data segments bypass the message queue and are
        #: handed to this callback one segment at a time (cut-through
        #: consumers like the active relay); sentinels still arrive
        #: via :meth:`recv`
        self.chunk_listener: Optional[Callable[[TcpSegment], None]] = None
        # retransmission state
        self._retx_queue: deque[TcpSegment] = deque()
        self._rto_current = rto
        self._rto_deadline = 0.0
        self._rto_timer_running = False
        self._timeouts_in_row = 0
        self._dup_acks = 0
        self.retransmits = 0
        # graceful-close state: close() with queued/unACKed data queues
        # the FIN behind them so nothing is silently dropped.
        self._closing = False

    # -- identity ------------------------------------------------------

    def demux_key(self) -> tuple[str, int, str, int]:
        return (self.local_ip, self.local_port, self.remote_ip or "", self.remote_port or 0)

    # -- connection management -------------------------------------------

    def connect(self, remote_ip: str, remote_port: int) -> Event:
        """Begin the 3-way handshake; returns the established event."""
        if self.state != "closed":
            raise ConnectionReset(f"connect() in state {self.state}")
        self.remote_ip = remote_ip
        self.remote_port = remote_port
        self.stack.bind_socket(self)
        self.state = "syn-sent"
        self._emit(TcpSegment(kind="syn"))
        self._arm_rto()
        return self.established_event

    def close(self) -> None:
        if self.state in ("closed", "reset") or self._closing:
            return
        if self.state == "established" and (self._pending or self._acked_bytes < self._sent_bytes):
            # data is still queued or in flight: the FIN goes out once
            # it is all emitted and ACKed
            self._closing = True
            self._enqueue(None)
            return
        self._finish_close()

    def _finish_close(self) -> None:
        express = self.sim.express
        if express is not None:
            express.demote(self, "close")
        self._emit(TcpSegment(kind="fin"))
        self.state = "closed"
        self._deliver_sentinel(EOF)
        self.stack.unbind_socket(self)

    def reset(self) -> None:
        """Abortively close (failure injection / iSCSI logout on error)."""
        if self.state == "reset":
            return
        if self.state == "established":
            self._emit(TcpSegment(kind="rst"))
        self._enter_reset()

    def _enter_reset(self) -> None:
        express = self.sim.express
        if express is not None:
            express.demote(self, "reset")
        self.state = "reset"
        # free the 4-tuple so a reconnection can bind it
        self.stack.unbind_socket(self)
        self._deliver_sentinel(RESET)
        self._pending.clear()  # nothing queued will ever be sent
        self._waiting = None
        if not self.established_event.triggered:
            self.established_event.fail(ConnectionReset("reset during handshake"))

    def _deliver_sentinel(self, sentinel: Any) -> None:
        # Wake every blocked receiver, and leave one marker for future reads.
        while self._rx_store._getters:
            self._rx_store.put(sentinel)
        self._rx_store.put(sentinel)

    # -- application interface ---------------------------------------------

    def send(self, message: Any, size: int) -> int:
        """Queue an application message of ``size`` bytes. Non-blocking."""
        if self.state == "reset":
            raise ConnectionReset("send on reset connection")
        if self._closing:
            raise ConnectionReset("send after close()")
        message_id = next(self.sim.message_ids)
        self._enqueue((message_id, message, size))
        return message_id

    def send_stream(self, total_size: int) -> StreamHandle:
        """Queue a message whose bytes arrive incrementally (cut-through
        relaying); drive it via the returned :class:`StreamHandle`."""
        if self.state == "reset":
            raise ConnectionReset("send on reset connection")
        if self._closing:
            raise ConnectionReset("send after close()")
        handle = StreamHandle(self, next(self.sim.message_ids), total_size)
        self._enqueue(handle)
        return handle

    def recv(self) -> Event:
        """Event yielding (message, size); RESET/EOF sentinel on teardown."""
        return self._rx_store.get()

    def when_delivered(self, message_id: int) -> Event:
        """Event firing once the peer has ACKed the entire message.

        Never fires if the connection resets first — which is exactly
        the property the active relay's NVM buffer needs.
        """
        event = self._delivery_events.get(message_id)
        if event is None:
            event = self.sim.event()
            self._delivery_events[message_id] = event
            threshold = self._threshold_by_id.get(message_id)
            if threshold is not None and threshold <= self._acked_bytes:
                event.succeed()
        return event

    # -- sending --------------------------------------------------------------

    def _enqueue(self, item: _Pending) -> None:
        self._pending.append(item)
        if self._waiting is None and self.state == "established":
            self._wake()

    def _start_sender(self) -> None:
        if self._pending:  # queued during the handshake
            self._wake()

    def _wake(self) -> None:
        """Drain one kernel occurrence later, at this instant: the hop
        the sender process took after every wake-up.  Kept, because
        sockets that share a NIC interleave their segments by it."""
        self._waiting = _WOKEN
        self.sim.call_at(self.sim.now, self._drain)

    def _drain(self) -> None:
        """Emit from the head of the send queue while the window and a
        streamed message's credit allow, recording each message's
        delivery threshold as its last byte goes out; note what the head
        waits for when blocked, so that only that wakes it."""
        self._waiting = None
        if self.state != "established":
            return
        pending = self._pending
        while pending:
            head = pending[0]
            if head is None:
                # close(): the FIN waits until every emitted byte is ACKed
                if self._acked_bytes < self._sent_bytes:
                    self._waiting = _WINDOW
                    return
                pending.popleft()
                self._finish_close()
                return
            handle: Optional[StreamHandle] = None
            message: Any = None
            if isinstance(head, StreamHandle):
                handle = head
                message_id, size, available = head.message_id, head.total_size, head.credited
            else:
                message_id, message, size = head
                available = size
            sent = self._head_sent
            while sent < size:
                chunk = self._head_chunk
                if not chunk:
                    if available <= sent:
                        self._head_sent = sent
                        self._waiting = handle
                        return
                    chunk = min(self.mss, available - sent)
                if self._sent_bytes - self._acked_bytes + chunk > self.window:
                    self._head_sent = sent
                    self._head_chunk = chunk
                    self._waiting = _WINDOW
                    return
                self._head_chunk = 0
                is_last = sent + chunk >= size
                if handle is not None:
                    is_last = is_last and handle.finished
                    message = handle.message if is_last else None
                self._emit_data(message_id, chunk, size, message, is_last)
                sent += chunk
            pending.popleft()
            self._head_sent = 0
            self._message_thresholds.append((self._sent_bytes, message_id))
            self._threshold_by_id[message_id] = self._sent_bytes
            if pending:
                self._wake()  # the process's next look at its queue
                return

    def _emit_data(
        self, message_id: int, chunk: int, size: int, message: Any, is_last: bool
    ) -> None:
        segment = TcpSegment("data", self._sent_bytes, 0, chunk, message_id, message, size, is_last)
        self._sent_bytes += chunk
        self.bytes_sent += chunk
        self._emit(segment)
        self._retx_queue.append(segment)
        self._arm_rto()

    # -- retransmission ---------------------------------------------------------

    def _arm_rto(self) -> None:
        """Push the retransmission deadline out; start the (single,
        lazy) timer if it is not already pending.  The timer is never
        cancelled — on early firing it re-arms for the remainder."""
        self._rto_deadline = self.sim.now + self._rto_current
        if not self._rto_timer_running:
            self._rto_timer_running = True
            self.sim.timeout(self._rto_current).callbacks.append(self._on_rto)

    def _on_rto(self, _event: Event) -> None:
        self._rto_timer_running = False
        if self.state in ("reset", "closed"):
            return
        outstanding = bool(self._retx_queue) or self.state == "syn-sent"
        if not outstanding:
            self._timeouts_in_row = 0
            return  # everything ACKed; the timer lapses
        remaining = self._rto_deadline - self.sim.now
        if remaining > 1e-12:
            # an ACK pushed the deadline out since the timer was set
            self._rto_timer_running = True
            self.sim.timeout(remaining).callbacks.append(self._on_rto)
            return
        self._timeouts_in_row += 1
        if self._timeouts_in_row > self.max_retransmits:
            # black hole: the peer is unreachable — fail locally (no RST
            # on the wire; it would not get through anyway)
            self._enter_reset()
            return
        self._rto_current = min(self._rto_current * 2.0, 16.0 * self.rto)
        if self.state == "syn-sent":
            self.retransmits += 1
            self._emit(TcpSegment(kind="syn"))
        else:
            # go-back-N: re-emit every unACKed segment in order
            for segment in self._retx_queue:
                self.retransmits += 1
                self._emit(segment)
        self._arm_rto()

    # -- segment handling -----------------------------------------------------

    def handle_segment(self, segment: TcpSegment, packet: Packet) -> None:
        if self.state == "reset":
            return
        if segment.kind == "rst":
            self._enter_reset()
            return
        if segment.kind == "fin":
            self._deliver_sentinel(EOF)
            return
        if segment.kind == "syn-ack" and self.state == "syn-sent":
            self.state = "established"
            self._emit(TcpSegment(kind="ack"))
            self._start_sender()
            self.established_event.succeed(self)
            return
        if segment.kind == "ack" and self.state == "syn-received":
            self.state = "established"
            self._start_sender()
            if self._on_established is not None:
                self._on_established(self)
            return
        if segment.kind == "ack":
            if segment.ack > self._acked_bytes:
                acked = self._acked_bytes = segment.ack
                retx = self._retx_queue
                while retx and retx[0].seq + retx[0].length <= acked:
                    retx.popleft()
                self._dup_acks = 0
                self._timeouts_in_row = 0
                self._rto_current = self.rto
                if retx:
                    self._rto_deadline = self.sim.now + self._rto_current
                if self._waiting is _WINDOW:
                    self._wake()
                thresholds = self._message_thresholds
                while thresholds and thresholds[0][0] <= acked:
                    _threshold, message_id = thresholds.popleft()
                    del self._threshold_by_id[message_id]
                    event = self._delivery_events.pop(message_id, None)
                    if event is not None and not event.triggered:
                        event.succeed()
                express = self.sim.express
                if express is not None and self._xpath is None:
                    express.on_ack(self)
            elif self._retx_queue and segment.ack == self._acked_bytes:
                self._dup_acks += 1
                if self._dup_acks == 3:
                    # fast retransmit (once per loss event: the counter
                    # only re-fires after new data is ACKed)
                    for retx_segment in self._retx_queue:
                        self.retransmits += 1
                        self._emit(retx_segment)
                    self._rto_deadline = self.sim.now + self._rto_current
            return
        if segment.kind == "data":
            if self.state != "established":
                if self.state == "syn-received":
                    # the peer's handshake ACK was lost but it moved on
                    # to data — treat arrival as an implicit ACK
                    self.state = "established"
                    self._start_sender()
                    if self._on_established is not None:
                        self._on_established(self)
                else:
                    return
            if segment.seq != self._rx_bytes:
                # loss/reordering hole (or a duplicate): drop and
                # re-assert the cumulative ACK so the sender converges
                self._emit(TcpSegment(kind="ack", ack=self._rx_bytes))
                return
            self._rx_bytes += segment.length
            self.bytes_received += segment.length
            # ACK on arrival, independent of app consumption — in the
            # active relay this IS the short-circuited acknowledgment
            self._emit(TcpSegment("ack", 0, self._rx_bytes))
            if self.chunk_listener is not None:
                self.chunk_listener(segment)
                return
            if segment.is_last:
                self._rx_store.put((segment.message, segment.message_size))
            return
        if segment.kind == "syn":
            if self.state == "syn-received":
                self._emit(TcpSegment(kind="syn-ack"))  # ours was lost
                return
            if self.state == "established":
                # the peer restarted and is reconnecting with the same
                # 4-tuple: this incarnation is dead — tear it down and
                # hand the SYN to the listener (challenge-ACK shortcut)
                self._enter_reset()
                listener = self.stack._listeners.get(self.local_port)
                if listener is not None:
                    listener.handle_segment(segment, packet)
            return

    #: set by TcpListener for server-side sockets
    _on_established: Optional[Callable[["TcpSocket"], None]] = None

    #: express fast path (:mod:`repro.net.express`): the compiled
    #: conduit while this flow is promoted (data/ack segments bypass
    #: per-packet simulation), the clean-ACK count toward promotion,
    #: whether the next data/ack segment is to learn the way, and a
    #: human-readable label for flow.promote/demote obs events.
    _xpath: Any = None
    _x_acks: int = 0
    _x_learn: bool = False
    express_label: str = ""

    # -- wire output ------------------------------------------------------------

    def _emit(self, segment: TcpSegment) -> None:
        # positional arguments (field order): keywords double the cost per packet
        packet = Packet("", "", self.local_ip, self.remote_ip or "", self.local_port,
                        self.remote_port or 0, "tcp", HEADER_BYTES + segment.length, segment)
        # Trace-context propagation: a message object (e.g. an iSCSI
        # PDU) stamped with a context spreads it to every packet that
        # carries a piece of it, joining per-hop telemetry to the
        # request's span tree.  Contexts are only ever stamped while a
        # bus is wired, so the copy is gated on the stack's bus to keep
        # obs-off runs free of per-packet attribute lookups.
        message = segment.message
        if message is not None and self.stack.obs_bus is not None:
            packet.ctx = getattr(message, "ctx", None)
        if self._xpath is not None and segment.kind in ("data", "ack"):
            # Promoted flow: replay the compiled conduit analytically.
            # SYN/FIN/RST stay on the packet path (and handshake/
            # teardown segments are what change the state a compiled
            # path depends on).
            self.sim.express.send(self, packet)
            return
        if self._x_learn and segment.kind in ("data", "ack"):
            packet.plan = self.sim.express.learner(self)
        self.stack.send_ip(packet)


class TcpListener:
    """A passive socket: accepts connections arriving on ``port``."""

    def __init__(
        self,
        sim: Simulator,
        stack: NetworkStack,
        ip: str,
        port: int,
        mss: int = DEFAULT_MSS,
        window: int = DEFAULT_WINDOW,
        rto: float = 0.05,
        max_retransmits: int = 8,
    ) -> None:
        self.sim = sim
        self.stack = stack
        self.ip = ip
        self.port = port
        self.mss = mss
        self.window = window
        self.rto = rto
        self.max_retransmits = max_retransmits
        self.accept_queue = Store(sim)
        #: propagated to accepted sockets for express-flow obs labels
        self.express_label = ""
        stack.bind_listener(self)

    def accept(self) -> Event:
        """Event yielding an established server-side :class:`TcpSocket`."""
        return self.accept_queue.get()

    def handle_segment(self, segment: TcpSegment, packet: Packet) -> None:
        if segment.kind != "syn":
            return
        socket = TcpSocket(
            self.sim,
            self.stack,
            local_ip=packet.dst_ip,
            local_port=packet.dst_port,
            remote_ip=packet.src_ip,
            remote_port=packet.src_port,
            mss=self.mss,
            window=self.window,
            rto=self.rto,
            max_retransmits=self.max_retransmits,
        )
        socket.state = "syn-received"
        socket.express_label = self.express_label
        socket._on_established = self.accept_queue.put
        self.stack.bind_socket(socket)
        socket._emit(TcpSegment(kind="syn-ack"))

    def shutdown(self) -> None:
        self.stack.unbind_listener(self)
