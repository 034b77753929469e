"""A windowed, ACK-clocked TCP model.

Faithful to the properties StorM's active-relay exploits, cheap on
everything else: in-order lossless delivery (the simulated fabric
preserves order), a fixed flow-control window, cumulative ACKs, a
3-way handshake (which is what populates NAT conntrack during the
atomic volume attach), and RST for failure injection.

Throughput of a connection is window/RTT-bound exactly like real TCP,
which is the mechanism behind the paper's Figures 5–9: splitting one
long connection into two short ones at the middle-box shortens each
ACK loop and restores throughput.

With ``reliable=True`` the socket additionally survives loss injected
by :mod:`repro.faults`: go-back-N retransmission driven by a single
lazy RTO timer with exponential backoff, 3-dup-ACK fast retransmit,
sequence-checked receive (out-of-order segments are dropped and the
cumulative ACK re-asserted), SYN retransmission, and black-hole
detection (``max_retransmits`` consecutive timeouts reset the
connection locally).  All of it is gated on the flag so the default
lossless fast path executes exactly as before.  FIN is not
retransmitted: teardown on a lossy link eventually falls back to RST
semantics, which every consumer in this codebase already handles.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Generator, Optional

from repro.sim import Event, Simulator, Store
from repro.net.packet import HEADER_BYTES, Packet
from repro.net.stack import NetworkStack

_message_ids = itertools.count(1)

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
    final segment.
    """

    def __init__(self, sim: Simulator, message_id: int, total_size: int) -> None:
        self.sim = sim
        self.message_id = message_id
        self.total_size = total_size
        self.credited = 0
        self.finished = False
        self.message: Any = None
        self._waiters: list[Event] = []

    def credit(self, nbytes: int) -> None:
        self.credited = min(self.total_size, self.credited + nbytes)
        self._wake()

    def finish(self, message: Any) -> None:
        self.message = message
        self.finished = True
        self.credited = self.total_size
        self._wake()

    def _wake(self) -> None:
        waiters, self._waiters = self._waiters, []
        for waiter in waiters:
            if not waiter.triggered:
                waiter.succeed()

    def wait(self) -> Event:
        event = Event(self.sim)
        self._waiters.append(event)
        return event


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
        reliable: bool = False,
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
        self.reliable = reliable
        self.rto = rto
        self.max_retransmits = max_retransmits
        self.state = "closed"
        self.established_event: Event = sim.event()
        self._tx_queue = Store(sim)
        self._rx_store = Store(sim)
        # sender-side accounting.  At most one process (the sender) ever
        # blocks on the window, so a single waiter slot suffices.
        self._sent_bytes = 0
        self._acked_bytes = 0
        self._window_waiter: Optional[Event] = None
        # receiver-side accounting
        self._rx_bytes = 0
        self.bytes_sent = 0
        self.bytes_received = 0
        self._sender_started = False
        # delivery notification (peer ACKed a whole message) — used by
        # the active relay's NVM buffer to know when it may discard.
        # Thresholds are monotone (the sender records them in byte
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
        # retransmission state (only touched when ``reliable``)
        self._retx_queue: deque[TcpSegment] = deque()
        self._rto_current = rto
        self._rto_deadline = 0.0
        self._rto_timer_running = False
        self._timeouts_in_row = 0
        self._dup_acks = 0
        self.retransmits = 0
        # graceful-close state: close() with queued/unACKed data defers
        # the FIN to the sender so nothing is silently abandoned.
        # ``_tx_outstanding`` counts messages handed to the sender but
        # not yet fully emitted (the Store hands items straight to the
        # blocked sender, so the queue itself can look empty).
        self._closing = False
        self._tx_outstanding = 0

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
        if self.reliable:
            self._arm_rto()
        return self.established_event

    def _start_sender(self) -> None:
        if not self._sender_started:
            self._sender_started = True
            self.sim.process(self._sender(), name=f"tcp-sender:{self.local_ip}:{self.local_port}")

    def close(self) -> None:
        if self.state in ("closed", "reset") or self._closing:
            return
        if self.state == "established" and (
            self._tx_outstanding or self._acked_bytes < self._sent_bytes
        ):
            # data is still queued or in flight: the sender drains it,
            # waits for the ACKs, and only then sequences the FIN
            self._closing = True
            self._tx_queue.put(("close",))
            return
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
        waiter, self._window_waiter = self._window_waiter, None
        if waiter is not None and not waiter.triggered:
            waiter.succeed()
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
        message_id = next(_message_ids)
        self._tx_outstanding += 1
        self._tx_queue.put(("msg", message_id, message, size))
        return message_id

    def send_stream(self, total_size: int) -> StreamHandle:
        """Queue a message whose bytes arrive incrementally (cut-through
        relaying); drive it via the returned :class:`StreamHandle`."""
        if self.state == "reset":
            raise ConnectionReset("send on reset connection")
        if self._closing:
            raise ConnectionReset("send after close()")
        handle = StreamHandle(self.sim, next(_message_ids), total_size)
        self._tx_outstanding += 1
        self._tx_queue.put(("stream", handle))
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

    # -- sender process -----------------------------------------------------

    def _sender(self) -> Generator[Event, Any, None]:
        while True:
            item = yield self._tx_queue.get()
            if self.state == "reset":
                return
            tag = item[0]
            if tag == "msg":
                _tag, message_id, message, size = item
                sent = yield from self._send_message(message_id, message, size)
            elif tag == "close":
                yield from self._finish_close()
                return
            else:
                handle: StreamHandle = item[1]
                message_id = handle.message_id
                sent = yield from self._send_streamed(handle)
            self._tx_outstanding -= 1
            if not sent:
                return  # connection reset mid-message
            self._message_thresholds.append((self._sent_bytes, message_id))
            self._threshold_by_id[message_id] = self._sent_bytes

    def _finish_close(self) -> Generator[Event, Any, None]:
        # flush: every emitted byte must be ACKed before the FIN goes out
        while self._acked_bytes < self._sent_bytes:
            waiter = self.sim.event()
            self._window_waiter = waiter
            yield waiter
            if self.state == "reset":
                return
        express = self.sim.express
        if express is not None:
            express.demote(self, "close")
        self._emit(TcpSegment(kind="fin"))
        self.state = "closed"
        self._deliver_sentinel(EOF)
        self.stack.unbind_socket(self)

    def _send_message(
        self, message_id: int, message: Any, size: int
    ) -> Generator[Event, Any, bool]:
        offset = 0
        while offset < size:
            chunk = min(self.mss, size - offset)
            if not (yield from self._await_window(chunk)):
                return False
            self._emit_data(
                message_id, chunk, size, message, is_last=offset + chunk >= size
            )
            offset += chunk
        return True

    def _send_streamed(self, handle: StreamHandle) -> Generator[Event, Any, bool]:
        sent = 0
        while sent < handle.total_size:
            while handle.credited <= sent:
                yield handle.wait()
                if self.state == "reset":
                    return False
            chunk = min(self.mss, handle.credited - sent)
            if not (yield from self._await_window(chunk)):
                return False
            is_last = handle.finished and sent + chunk >= handle.total_size
            self._emit_data(
                handle.message_id,
                chunk,
                handle.total_size,
                handle.message if is_last else None,
                is_last=is_last,
            )
            sent += chunk
        return True

    def _await_window(self, chunk: int) -> Generator[Event, Any, bool]:
        while self._sent_bytes - self._acked_bytes + chunk > self.window:
            waiter = self.sim.event()
            self._window_waiter = waiter
            yield waiter
            if self.state == "reset":
                return False
        return True

    def _emit_data(
        self, message_id: int, chunk: int, size: int, message: Any, is_last: bool
    ) -> None:
        segment = TcpSegment(
            kind="data",
            seq=self._sent_bytes,
            length=chunk,
            message_id=message_id,
            message=message,
            message_size=size,
            is_last=is_last,
        )
        self._sent_bytes += chunk
        self.bytes_sent += chunk
        self._emit(segment)
        if self.reliable:
            self._retx_queue.append(segment)
            self._arm_rto()

    def _in_flight(self) -> int:
        return self._sent_bytes - self._acked_bytes

    # -- retransmission (reliable mode only) --------------------------------

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
                if self.reliable:
                    retx = self._retx_queue
                    while retx and retx[0].seq + retx[0].length <= acked:
                        retx.popleft()
                    self._dup_acks = 0
                    self._timeouts_in_row = 0
                    self._rto_current = self.rto
                    if retx:
                        self._rto_deadline = self.sim.now + self._rto_current
                waiter, self._window_waiter = self._window_waiter, None
                if waiter is not None and not waiter.triggered:
                    waiter.succeed()
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
            elif self.reliable and self._retx_queue and segment.ack == self._acked_bytes:
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
                if self.state == "syn-received" and self.reliable:
                    # the peer's handshake ACK was lost but it moved on
                    # to data — treat arrival as an implicit ACK
                    self.state = "established"
                    self._start_sender()
                    if self._on_established is not None:
                        self._on_established(self)
                else:
                    return
            if self.reliable and segment.seq != self._rx_bytes:
                # loss/reordering hole (or a duplicate): drop and
                # re-assert the cumulative ACK so the sender converges
                self._emit(TcpSegment(kind="ack", ack=self._rx_bytes))
                return
            self._rx_bytes += segment.length
            self.bytes_received += segment.length
            # ACK on arrival, independent of app consumption — in the
            # active relay this IS the short-circuited acknowledgment
            self._emit(TcpSegment(kind="ack", ack=self._rx_bytes))
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
            if self.reliable and self.state == "established":
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
        packet = Packet(
            src_mac="",
            dst_mac="",
            src_ip=self.local_ip,
            dst_ip=self.remote_ip or "",
            src_port=self.local_port,
            dst_port=self.remote_port or 0,
            protocol="tcp",
            size=HEADER_BYTES + segment.length,
            payload=segment,
        )
        # Trace-context propagation: a message object (e.g. an iSCSI
        # PDU) stamped with a context spreads it to every packet that
        # carries a piece of it, joining per-hop telemetry to the
        # request's span tree.  Contexts are only ever stamped while a
        # bus is collecting, so the copy is gated on ``bus.enabled`` to
        # keep obs-off runs free of per-packet attribute lookups.
        message = segment.message
        if message is not None:
            bus = self.stack.obs_bus
            if bus is not None and bus.enabled:
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
        reliable: bool = False,
        rto: float = 0.05,
        max_retransmits: int = 8,
    ) -> None:
        self.sim = sim
        self.stack = stack
        self.ip = ip
        self.port = port
        self.mss = mss
        self.window = window
        self.reliable = reliable
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
            reliable=self.reliable,
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
