"""A chain changed under live traffic never breaks TCP's byte order.

Reprogramming a forwarding chain mid-burst (paper §III-A) sends new
segments down the new path while older ones are still queued on the
old one, so segments overtake each other on the fabric.  The receiving
socket must accept data strictly in sequence: an overtaking segment is
dropped and recovered by retransmission, never delivered out of order.
"""

from repro.blockdev.disk import BLOCK_SIZE
from repro.net.tcp import TcpSocket
from repro.testbed import Testbed, assert_at_rest
from repro.workloads import FioConfig, FioJob


def test_live_chain_change_never_accepts_a_segment_out_of_sequence(monkeypatch):
    accepted = []  # (segment.seq, bytes received before it) per accepted segment
    sockets = {}
    handle_segment = TcpSocket.handle_segment

    def tap(self, segment, packet):
        sockets[id(self)] = self
        before = self._rx_bytes
        handle_segment(self, segment, packet)
        if segment.kind == "data" and self._rx_bytes > before:
            accepted.append((segment.seq, before))

    monkeypatch.setattr(TcpSocket, "handle_segment", tap)

    bed = Testbed(volume_size=8 * 1024 * 1024)
    flow, (mb_a,) = bed.attach([bed.spec("a", "noop", relay="fwd", placement="compute3")])
    mb_b = bed.storm.provision_middlebox(
        bed.tenant, bed.spec("b", "noop", relay="fwd", placement="compute4")
    )
    for host in bed.cloud.storage_hosts.values():
        # cache-warm backend: the middle-boxes' queues are what back up
        host.disk.seek_penalty = 0.5e-3
        host.disk.set_queue_depth(32)
    job = FioJob(
        bed.sim,
        flow.session,
        FioConfig(
            io_size=16 * BLOCK_SIZE,
            num_threads=4,
            ios_per_thread=50,
            region_size=1024 * BLOCK_SIZE,
            seed=3,
        ),
    )

    def flip_chain():
        for k in range(6):
            yield bed.sim.timeout(0.02)
            bed.storm.reconfigure_chain(flow, [mb_b] if k % 2 == 0 else [mb_a])

    bed.sim.process(flip_chain())
    result = bed.run(job.run())

    assert accepted
    out_of_sequence = [(seq, expected) for seq, expected in accepted if seq != expected]
    assert out_of_sequence == []
    assert sum(socket.retransmits for socket in sockets.values()) > 0
    assert result.errors == 0
    assert result.completed == 200
    assert_at_rest(bed.storm)
