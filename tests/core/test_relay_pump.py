"""The active relay's pumps as callbacks: equal to the processes they replaced.

Each direction of a relay pair used to be a pump process fed by a
``Store`` (chunks from the ``chunk_listener``, whole messages and the
RESET/EOF sentinel from a watcher process), charging the service's
per-byte CPU with ``CpuMeter.consume``.  That code is kept below as
the reference.  On a VM -> middle-box -> target bed with drawn PDU
sizes and send instants in both directions, windows, MSS, 1 or 2
vCPUs, per-byte costs (no service, free, cheap, dear), cut-through or
store-and-forward services and an optional close, the box's emitted
segments (both sockets, interleaved on its one NIC), what each end
receives and when, and the box's ``busy_time`` must be identical.
The budget test pins what a relayed chunk costs now: one kernel
occurrence, its CPU slot's end.
"""

from unittest.mock import patch

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cloud import CloudParams
from repro.core.middlebox import MiddleBox, StorageService
from repro.core.relay import ActiveRelay, RelayPair
from repro.iscsi.pdu import DataInPdu
from repro.net import ArpTable, Interface, Link, Switch, TcpListener, TcpSocket
from repro.net.tcp import EOF, RESET, ConnectionReset, StreamHandle, TcpSegment
from repro.sim import Simulator, Store

from tests.net.helpers import make_host


class ProcessPumpRelay(ActiveRelay):
    """The reference: a pump process and a sentinel-watcher process per
    direction, fed through a ``Store``."""

    def _relay_pair(self, server_sock):
        up_queue = Store(self.sim)
        server_sock.chunk_listener = lambda segment: up_queue.put(("chunk", segment))
        self.sim.process(self._sentinel_watcher(server_sock, up_queue))
        client_sock = self._new_client_socket(server_sock)
        try:
            yield client_sock.connect(self.egress_ip, self.egress_port)
        except ConnectionReset:
            self._log("relay.connect-failed")
            if server_sock.state == "established":
                server_sock.reset()
            return
        pair = RelayPair(server_sock, client_sock, pumps=1)
        self.pairs.append(pair)
        self.sim.process(self._pump(up_queue, pair, "upstream"))
        self._start_downstream_pump(pair)

    def _start_downstream_pump(self, pair):
        down_queue = Store(self.sim)
        pair.client.chunk_listener = lambda segment: down_queue.put(("chunk", segment))
        pair.pumps += 1
        self.sim.process(self._sentinel_watcher(pair.client, down_queue))
        self.sim.process(self._pump(down_queue, pair, "downstream"))

    def _pump(self, queue, pair, direction):
        service = self.middlebox.service
        streams = {}
        while True:
            kind, payload = yield queue.get()
            if kind == "ctrl":
                self._pump_ended(pair, direction, payload)
                return
            if kind == "msg":
                self._relay_whole(payload[0], pair, direction, service)
                continue
            segment = payload
            if service is not None and service.cpu_per_byte and segment.length:
                yield from self.middlebox.cpu.consume(service.cpu_per_byte * segment.length)
            if segment.message_size <= segment.length and segment.message_id not in streams:
                self._relay_whole(segment.message, pair, direction, service)
                continue
            self._relay_chunk(segment, pair, direction, service, streams)

    def _sentinel_watcher(self, src, queue):
        while True:
            got = yield src.recv()
            if got is RESET or got is EOF:
                queue.put(("ctrl", got))
                return
            queue.put(("msg", got))


class Metered(StorageService):
    name = "metered"


def relay_bed(relay_class, vcpus, cost, buffered, window, mss):
    """vm (10.0.0.1) and target (10.0.0.2) on one switch with a
    middle-box (10.0.0.3) whose relay listens on 3260 and re-originates
    each flow toward the target."""
    sim = Simulator()
    arp = ArpTable("net")
    switch = Switch(sim, "sw")
    vm = make_host(sim, arp, "vm", "10.0.0.1", "aa:00:00:00:00:01", switch)
    target = make_host(sim, arp, "target", "10.0.0.2", "aa:00:00:00:00:02", switch)
    mb = MiddleBox(sim, "mb", tenant=None, vcpus=vcpus)
    nic = mb.add_interface(Interface("mb.eth0", "aa:00:00:00:00:03", "10.0.0.3"), arp)
    mb.stack.add_route("0.0.0.0/0", nic)
    Link(sim, nic, switch.add_port("mb"))
    if cost is not None:
        service = Metered()
        service.cpu_per_byte = cost
        service.requires_full_pdu = buffered
        mb.install_service(service)
    params = CloudParams(mss=mss, tcp_window=window)
    relay = relay_class(sim, mb, "10.0.0.2", params)
    return sim, vm, target, mb, relay, params


def exchange(relay_class, vcpus, cost, buffered, window, mss, ups, downs, close):
    """The VM sends ``ups`` and the target ``downs`` (``(gap, size)``
    each, a Data-In PDU of ``size`` payload bytes) through the box;
    with ``close`` the VM closes once every reply is in.  Returns the
    box's emitted segments, what each end received, and the relay's
    and CPU's accounting."""
    sim, vm, target, mb, relay, params = relay_bed(relay_class, vcpus, cost, buffered,
                                                   window, mss)
    emitted = []

    def tap(packet, send_ip=mb.stack.send_ip):
        s = packet.payload
        emitted.append((sim.now, packet.src_port, packet.dst_port, s.kind, s.seq, s.ack,
                        s.length, s.is_last))
        send_ip(packet)

    mb.stack.send_ip = tap
    listener = TcpListener(sim, target.stack, "10.0.0.2", 3260, mss=mss, window=window)
    client = TcpSocket(sim, vm.stack, "10.0.0.1", vm.stack.allocate_port(), mss=mss,
                       window=window)
    received = {"vm": [], "target": []}

    def sender(socket, plan, base):
        for n, (gap, size) in enumerate(plan):
            yield sim.timeout(gap)
            pdu = DataInPdu(base + n, size)
            socket.send(pdu, pdu.wire_size)

    def receiver(name, socket, count):
        for _ in range(count):
            got = yield socket.recv()
            received[name].append((sim.now, got[0].task_tag, got[1]))

    def storage():
        socket = yield listener.accept()
        sim.process(receiver("target", socket, len(ups)))
        yield from sender(socket, downs, 1000)

    def vm_side():
        yield client.connect("10.0.0.3", 3260)
        replies = sim.process(receiver("vm", client, len(downs)))
        yield from sender(client, ups, 0)
        if close:
            yield replies
            client.close()

    sim.process(storage())
    sim.process(vm_side())
    sim.run()
    return (emitted, received, mb.cpu.busy_time, mb.cpu._window_busy, relay.pdus_relayed,
            relay.nvm_peak, sorted(relay.nvm), len(relay.pairs), sim.now)


gaps = st.sampled_from([0.0, 0.0, 5e-5, 2e-4, 1e-3])
pdus = st.lists(st.tuples(gaps, st.integers(0, 20000)), max_size=5)


@settings(max_examples=60, deadline=None)
@given(
    vcpus=st.sampled_from([1, 2]),
    cost=st.sampled_from([None, 0.0, 1e-9, 2e-8, 1e-7]),
    buffered=st.booleans(),
    window=st.sampled_from([8192, 16384, 49152]),
    mss=st.sampled_from([1460, 4096]),
    ups=pdus,
    downs=pdus,
    close=st.booleans(),
)
def test_callback_pumps_equal_the_pump_processes(vcpus, cost, buffered, window, mss, ups,
                                                 downs, close):
    args = (vcpus, cost, buffered, window, mss, ups, downs, close)
    new = exchange(ActiveRelay, *args)
    assert new == exchange(ProcessPumpRelay, *args)
    _emitted, received, *_rest = new
    assert [tag for _t, tag, _s in received["target"]] == list(range(len(ups)))
    assert [tag for _t, tag, _s in received["vm"]] == [1000 + n for n in range(len(downs))]


def test_a_relayed_chunk_is_one_kernel_occurrence():
    """From the chunk listener to the chunk's first forwarding call (a
    send, a stream's opening, a credit or its finish): exactly one
    ``_sequence`` step, the call at the end of the chunk's CPU slot."""
    sim, vm, target, mb, relay, params = relay_bed(ActiveRelay, 2, 1e-8, False, 49152, 4096)
    TcpListener(sim, target.stack, "10.0.0.2", 3260)
    client = TcpSocket(sim, vm.stack, "10.0.0.1", vm.stack.allocate_port())
    sim.run(until=client.connect("10.0.0.3", 3260))
    sim.run(until=sim.now + 0.01)
    (pair,) = relay.pairs
    marks = []
    send, send_stream = TcpSocket.send, TcpSocket.send_stream

    def mark():
        marks.append(sim._sequence)

    def finish(handle, _message):
        handle.finished = True
        mark()

    pdu = DataInPdu(1, 3 * 4096)
    chunks = [
        TcpSegment("data", 0, 0, 4096, 77, None, pdu.wire_size, False),
        TcpSegment("data", 4096, 0, 4096, 77, None, pdu.wire_size, False),
        TcpSegment("data", 8192, 0, pdu.wire_size - 8192, 77, pdu, pdu.wire_size, True),
        TcpSegment("data", 0, 0, 48, 78, DataInPdu(2, 0), 48, True),
    ]
    spent = []
    with (
        patch.object(StreamHandle, "credit", lambda handle, nbytes: mark()),
        patch.object(StreamHandle, "finish", finish),
        patch.object(TcpSocket, "send", lambda s, *a: mark() or send(s, *a)),
        patch.object(TcpSocket, "send_stream", lambda s, *a: mark() or send_stream(s, *a)),
    ):
        for chunk in chunks:
            before = sim._sequence
            marks.clear()
            pair.server.chunk_listener(chunk)
            sim.run()
            spent.append(marks[0] - before)
    assert spent == [1, 1, 1, 1]
    assert mb.cpu.busy_time == sum(1e-8 * c.length for c in chunks)
