"""Edge cases across the service layer."""


from repro.blockdev.disk import BLOCK_SIZE
from repro.core.middlebox import NoopService, StorageService
from repro.core.relay import RelayContext
from repro.iscsi.pdu import ScsiCommandPdu, ScsiResponsePdu
from repro.services import ReplicationService, StorageAccessMonitor
from repro.sim import Simulator


def make_ctx():
    forwarded, replied = [], []
    ctx = RelayContext(
        direction="upstream", forward=forwarded.append, reply=replied.append
    )
    # wrap to mark consumed like the real relay does
    original_forward = ctx.forward

    def forward(pdu):
        ctx.consumed = True
        original_forward(pdu)

    ctx.forward = forward
    return ctx, forwarded, replied


def test_noop_service_forwards_everything():
    service = NoopService()
    ctx, forwarded, _ = make_ctx()
    pdu = ScsiCommandPdu("read", 0, 4096, 9)
    service.process(pdu, "upstream", ctx)
    assert forwarded == [pdu]
    assert service.pdus_processed == 1


def test_monitor_without_view_passes_through():
    """A monitor that never received a view must not crash the flow."""
    monitor = StorageAccessMonitor()
    ctx, forwarded, _ = make_ctx()
    pdu = ScsiCommandPdu("write", 0, BLOCK_SIZE, 1, b"\x00" * BLOCK_SIZE)
    monitor.process(pdu, "upstream", ctx)
    assert forwarded == [pdu]
    assert monitor.access_log == []


def test_replication_without_replicas_behaves_like_noop():
    sim = Simulator()
    service = ReplicationService()

    class FakeMb:
        def __init__(self):
            self.sim = sim

    service.attach(FakeMb())
    ctx, forwarded, _ = make_ctx()
    write = ScsiCommandPdu("write", 0, BLOCK_SIZE, 1, b"\x01" * BLOCK_SIZE)
    service.process(write, "upstream", ctx)
    read = ScsiCommandPdu("read", 0, BLOCK_SIZE, 2)
    ctx2, forwarded2, _ = make_ctx()
    service.process(read, "upstream", ctx2)
    assert forwarded == [write] and forwarded2 == [read]
    assert service.replication_factor == 1


def test_replication_downstream_passthrough():
    service = ReplicationService()
    ctx, forwarded, _ = make_ctx()
    response = ScsiResponsePdu(1, "good")
    service.process(response, "downstream", ctx)
    assert forwarded == [response]


def test_custom_service_transform_hooks():
    class UppercaseTags(StorageService):
        def transform_upstream(self, pdu):
            pdu.task_tag += 1000
            return pdu

    service = UppercaseTags()
    ctx, forwarded, _ = make_ctx()
    pdu = ScsiCommandPdu("read", 0, 4096, 7)
    service.process(pdu, "upstream", ctx)
    assert forwarded[0].task_tag == 1007


def test_service_dropping_pdu_forwards_nothing():
    class BlackHole(StorageService):
        def transform_upstream(self, pdu):
            return None  # swallow

    ctx, forwarded, _ = make_ctx()
    BlackHole().process(ScsiCommandPdu("read", 0, 4096, 1), "upstream", ctx)
    assert forwarded == []
    assert not ctx.consumed
