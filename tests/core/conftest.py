"""Shared StorM test environment: a small cloud plus the platform."""

import pytest

from repro.blockdev.disk import BLOCK_SIZE
from repro.cloud import CloudController, CloudParams
from repro.core import Reconciler, StorM, StorageService
from repro.core.policy import ServiceSpec
from repro.iscsi.pdu import DataInPdu, ScsiCommandPdu
from repro.sim import Simulator


class XorService(StorageService):
    """Test cipher: XOR every payload byte with 0x5A."""

    name = "xor"
    cpu_per_byte = 1e-9

    @staticmethod
    def _xor(data: bytes) -> bytes:
        return bytes(b ^ 0x5A for b in data)

    def transform_upstream(self, pdu):
        if isinstance(pdu, ScsiCommandPdu) and pdu.op == "write" and pdu.data is not None:
            pdu.data = self._xor(pdu.data)
        return pdu

    def transform_downstream(self, pdu):
        if isinstance(pdu, DataInPdu) and pdu.data is not None:
            pdu.data = self._xor(pdu.data)
        return pdu


class StormEnv:
    """A 4-compute/1-storage cloud with one tenant VM and volume."""

    def __init__(self, volume_size=1024 * BLOCK_SIZE, express=False, params=None):
        self.sim = Simulator()
        if params is None:
            params = CloudParams(express=True) if express else None
        self.cloud = CloudController(self.sim, params)
        for i in range(1, 5):
            self.cloud.add_compute_host(f"compute{i}")
        self.storage = self.cloud.add_storage_host("storage1")
        self.tenant = self.cloud.create_tenant("acme")
        self.vm = self.cloud.boot_vm(
            self.tenant, "vm1", self.cloud.compute_hosts["compute1"]
        )
        self.volume = self.cloud.create_volume(self.tenant, "vol1", volume_size)
        self.storm = StorM(self.sim, self.cloud)
        self.storm.register_service("xor", lambda spec, storm: XorService())

    def run(self, gen):
        return self.sim.run(until=self.sim.process(gen))

    def spec(self, name="svc", kind="noop", relay="fwd", placement=None, **options):
        return ServiceSpec(
            name=name, kind=kind, relay=relay, placement=placement, options=options
        )

    def attach(self, specs, ingress_host="compute2", egress_host="compute4"):
        """Provision middle-boxes from specs and do the spliced attach."""
        mbs = [self.storm.provision_middlebox(self.tenant, s) for s in specs]

        def do_attach():
            flow = yield self.sim.process(
                self.storm.attach_with_services(
                    self.tenant,
                    self.vm,
                    "vol1",
                    mbs,
                    ingress_host=self.cloud.compute_hosts[ingress_host],
                    egress_host=self.cloud.compute_hosts[egress_host],
                )
            )
            return flow

        flow = self.run(do_attach())
        return flow, mbs


def assert_at_rest(storm):
    """The invariant every scenario must end in: no saga left in
    flight, no drift between intent and the switch/NAT tables."""
    assert storm.intent_log.incomplete() == []
    assert Reconciler(storm).audit() == []


@pytest.fixture
def env():
    env = StormEnv()
    yield env
    assert_at_rest(env.storm)
