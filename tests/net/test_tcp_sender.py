"""The TCP sender as callbacks: equal to the process it replaced.

The socket used to run one sender process fed by a ``Store``; that code
is kept below as the reference.  Now ``TcpSocket._drain`` emits from the
head of a plain send queue, and what the head waits for (the window, a
stream's credit, or a message to arrive) wakes it one kernel occurrence
later, where the process resumed.  On drawn message sizes, streamed
credits, windows, MSS, loss and reordering, one or two connections
sharing a NIC, both ends sending, sends before the handshake completes
and an optional close, every emitted segment (with its instant and its
place on the NIC), every arrival and every ``when_delivered`` instant
must be identical.  The budget tests pin what a send costs now: no
process, no ``Store`` round trip, one ``call_at``.
"""

from unittest.mock import patch

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import FaultInjector
from repro.net import tcp
from repro.net.tcp import EOF, RESET, ConnectionReset, TcpListener, TcpSegment, TcpSocket
from repro.sim import Event, Process, Store

from tests.net.helpers import two_hosts_one_switch


class ReferenceStreamHandle:
    """The reference's stream handle: credits wake the waiting sender."""

    def __init__(self, sim, message_id, total_size):
        self.sim = sim
        self.message_id = message_id
        self.total_size = total_size
        self.credited = 0
        self.finished = False
        self.message = None
        self._waiters = []

    def credit(self, nbytes):
        self.credited = min(self.total_size, self.credited + nbytes)
        self._wake()

    def finish(self, message):
        self.message = message
        self.finished = True
        self.credited = self.total_size
        self._wake()

    def _wake(self):
        waiters, self._waiters = self._waiters, []
        for waiter in waiters:
            if not waiter.triggered:
                waiter.succeed()

    def wait(self):
        event = Event(self.sim)
        self._waiters.append(event)
        return event


class ProcessSenderSocket(TcpSocket):
    """The reference: one sender process per socket, fed by a ``Store``,
    blocking on a window waiter that the window-opening ACK wakes (ahead
    of that ACK's delivery notifications) and on stream credit."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._tx_queue = Store(self.sim)
        self._window_waiter = None
        self._sender_started = False
        self._tx_outstanding = 0

    def _start_sender(self):
        if not self._sender_started:
            self._sender_started = True
            self.sim.process(self._sender())

    def handle_segment(self, segment, packet):
        if (
            segment.kind == "ack"
            and self.state not in ("reset", "syn-received")
            and segment.ack > self._acked_bytes
        ):
            self._wake_window_waiter()
        super().handle_segment(segment, packet)

    def _wake_window_waiter(self):
        waiter, self._window_waiter = self._window_waiter, None
        if waiter is not None and not waiter.triggered:
            waiter.succeed()

    def close(self):
        if self.state in ("closed", "reset") or self._closing:
            return
        if self.state == "established" and (
            self._tx_outstanding or self._acked_bytes < self._sent_bytes
        ):
            self._closing = True
            self._tx_queue.put(("close",))
            return
        self._fin()

    def _fin(self):
        self._emit(TcpSegment(kind="fin"))
        self.state = "closed"
        self._deliver_sentinel(EOF)
        self.stack.unbind_socket(self)

    def _enter_reset(self):
        self.state = "reset"
        self.stack.unbind_socket(self)
        self._deliver_sentinel(RESET)
        self._wake_window_waiter()
        if not self.established_event.triggered:
            self.established_event.fail(ConnectionReset("reset during handshake"))

    def send(self, message, size):
        if self.state == "reset":
            raise ConnectionReset("send on reset connection")
        if self._closing:
            raise ConnectionReset("send after close()")
        message_id = next(self.sim.message_ids)
        self._tx_outstanding += 1
        self._tx_queue.put(("msg", message_id, message, size))
        return message_id

    def send_stream(self, total_size):
        if self.state == "reset":
            raise ConnectionReset("send on reset connection")
        if self._closing:
            raise ConnectionReset("send after close()")
        handle = ReferenceStreamHandle(self.sim, next(self.sim.message_ids), total_size)
        self._tx_outstanding += 1
        self._tx_queue.put(("stream", handle))
        return handle

    def _sender(self):
        while True:
            item = yield self._tx_queue.get()
            if self.state == "reset":
                return
            tag = item[0]
            if tag == "msg":
                _tag, message_id, message, size = item
                sent = yield from self._send_message(message_id, message, size)
            elif tag == "close":
                yield from self._flush_then_fin()
                return
            else:
                handle = item[1]
                message_id = handle.message_id
                sent = yield from self._send_streamed(handle)
            self._tx_outstanding -= 1
            if not sent:
                return
            self._message_thresholds.append((self._sent_bytes, message_id))
            self._threshold_by_id[message_id] = self._sent_bytes

    def _flush_then_fin(self):
        while self._acked_bytes < self._sent_bytes:
            waiter = self.sim.event()
            self._window_waiter = waiter
            yield waiter
            if self.state == "reset":
                return
        self._fin()

    def _send_message(self, message_id, message, size):
        offset = 0
        while offset < size:
            chunk = min(self.mss, size - offset)
            if not (yield from self._await_window(chunk)):
                return False
            self._emit_data(message_id, chunk, size, message, is_last=offset + chunk >= size)
            offset += chunk
        return True

    def _send_streamed(self, handle):
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
                handle.message_id, chunk, handle.total_size,
                handle.message if is_last else None, is_last=is_last,
            )
            sent += chunk
        return True

    def _await_window(self, chunk):
        while self._sent_bytes - self._acked_bytes + chunk > self.window:
            waiter = self.sim.event()
            self._window_waiter = waiter
            yield waiter
            if self.state == "reset":
                return False
        return True


def exchange(socket_class, window, mss, conns, drop, delay, seed, close, early):
    """One connection per ``(sends, replies)`` in ``conns``, all from
    host-a (sharing its NIC) to one listener on host-b.  Each client
    runs its ``sends`` and its server side its ``replies``: ``(gap,
    size, credits)`` each, sent whole when ``credits`` is None, else
    streamed in those credits 0.1 ms apart and finished 0.1 ms after the
    last.  With ``early`` a client
    starts sending before its handshake completes; with ``close`` it
    closes once every reply is in.  Returns, per stack and in order,
    every segment it emitted with its instant, and per socket what it
    received and when each of its messages was delivered."""
    with patch.object(tcp, "TcpSocket", socket_class):
        sim, _arp, _switch, a, b = two_hosts_one_switch()
        listener = TcpListener(sim, b.stack, "10.0.0.2", 3260, window=window, mss=mss,
                               rto=0.01, max_retransmits=40)
        clients = [
            socket_class(sim, a.stack, "10.0.0.1", a.stack.allocate_port(), window=window,
                         mss=mss, rto=0.01, max_retransmits=40)
            for _ in conns
        ]
        if drop or delay:
            FaultInjector(sim, seed=seed).lossy_link(
                a.interfaces[0].link, drop=drop, delay_prob=delay, delay_range=(0.0001, 0.002)
            )
        log = {"host-a": [], "host-b": []}
        for host in (a, b):
            def emitted(packet, send_ip=host.stack.send_ip, out=log[host.name]):
                s = packet.payload
                out.append((sim.now, packet.src_port, s.kind, s.seq, s.ack, s.length,
                            s.is_last))
                send_ip(packet)
            host.stack.send_ip = emitted

        def streamer(handle, credits):
            for credit in credits:
                yield sim.timeout(0.0001)
                handle.credit(credit)
            yield sim.timeout(0.0001)
            handle.finish(("streamed", handle.total_size))

        def sender(name, socket, plan):
            for n, (gap, size, credits) in enumerate(plan):
                yield sim.timeout(gap)
                if credits is None:
                    message_id = socket.send((name, n), size)
                else:
                    handle = socket.send_stream(size)
                    message_id = handle.message_id
                    sim.process(streamer(handle, credits))
                socket.when_delivered(message_id).callbacks.append(
                    lambda _e, n=n: log[name].append(("delivered", n, sim.now))
                )

        def receiver(name, socket, count):
            log[name] = []
            for _ in range(count):
                got = yield socket.recv()
                log[name].append(("received", got, sim.now))

        def serve():
            for _ in conns:
                socket = yield listener.accept()
                index = next(i for i, c in enumerate(clients) if c.local_port == socket.remote_port)
                sends, replies = conns[index]
                sim.process(receiver(f"server{index}", socket, len(sends)))
                sim.process(sender(f"server{index}", socket, replies))

        def run_client(index, client, sends, replies):
            established = client.connect("10.0.0.2", 3260)
            if not early:
                yield established
            replied = sim.process(receiver(f"client{index}", client, len(replies)))
            yield from sender(f"client{index}", client, sends)
            if close:
                yield replied
                yield established
                client.close()  # FIN behind whatever is still queued or in flight

        sim.process(serve())
        for index, (client, (sends, replies)) in enumerate(zip(clients, conns)):
            sim.process(run_client(index, client, sends, replies))
        sim.run()
        return log, [client.state for client in clients], sim.now


def credits_below(size):
    def below(parts):
        kept, total = [], 0
        for part in parts:
            if total + part >= size:
                break
            kept.append(part)
            total += part
        return kept

    return st.lists(st.sampled_from([100, 1000, 1460, 2048, 4096, 5000]), max_size=5).map(below)


gaps = st.sampled_from([0.0, 0.0, 1e-4, 3e-4, 2e-3])
message = st.integers(1, 20000).flatmap(
    lambda size: st.tuples(gaps, st.just(size), st.one_of(st.none(), credits_below(size)))
)


@settings(max_examples=150, deadline=None)
@given(
    window=st.sampled_from([2048, 4096, 8192, 12000, 49152]),
    mss=st.sampled_from([1000, 1460, 4096]),
    conns=st.lists(st.tuples(st.lists(message, max_size=5), st.lists(message, max_size=3)),
                   min_size=1, max_size=2),
    drop=st.sampled_from([0.0, 0.0, 0.05]),
    delay=st.sampled_from([0.0, 0.0, 0.1]),
    seed=st.integers(0, 2**16),
    close=st.booleans(),
    early=st.booleans(),
)
def test_drain_equals_the_sender_process(window, mss, conns, drop, delay, seed, close, early):
    args = (window, mss, conns, drop, delay, seed, close, early)
    new = exchange(TcpSocket, *args)
    assert new == exchange(ProcessSenderSocket, *args)
    if not drop and window >= mss:  # else a lost handshake ACK or an oversize chunk stalls both
        received = [e for key, log in new[0].items() if not key.startswith("host")
                    for e in log if e[0] == "received"]
        assert len(received) == sum(len(sends) + len(replies) for sends, replies in conns)


def established_pair():
    sim, _arp, _switch, a, b = two_hosts_one_switch()
    listener = TcpListener(sim, b.stack, "10.0.0.2", 3260)
    client = TcpSocket(sim, a.stack, "10.0.0.1", a.stack.allocate_port())
    client.connect("10.0.0.2", 3260)
    server = sim.run(until=listener.accept())
    return sim, client, server


def test_a_sent_message_starts_no_process_and_no_store_round_trip():
    sim, client, server = established_pair()
    started, stores = [], []
    with (
        patch.object(Process, "__init__", lambda self, *a, **k: started.append(a)),
        patch.object(Store, "put", lambda self, item: stores.append(self)),
        patch.object(Store, "get", lambda self: stores.append(self)),
    ):
        client.send("payload", 10_000)
        handle = client.send_stream(6000)
        handle.credit(4096)
        handle.finish("streamed")
        sim.run()
    assert started == []
    # the one Store left on the way is the receiver's, where a reader blocks
    assert len(stores) == 2 and all(store is server._rx_store for store in stores)
    assert client._sent_bytes == client._acked_bytes == 16_000 and not client._pending


def test_a_queued_message_is_picked_up_one_occurrence_later():
    """The wake-up keeps the hop the sender process took through its
    ``Store`` (sockets sharing a NIC interleave their messages by it),
    and costs nothing more: one ``call_at`` at the same instant."""
    sim, client, _server = established_pair()
    emitted = []
    real_emit = client._emit

    def emit(segment):
        emitted.append((sim._sequence, sim.now, segment.kind, segment.length))
        real_emit(segment)

    client._emit = emit
    before, now = sim._sequence, sim.now
    client.send("payload", 5000)
    assert emitted == []
    sim.run()
    first, second = [e for e in emitted if e[2] == "data"]
    assert first[:2] == (before + 1, now) and second[1:] == (now, "data", 5000 - 4096)
