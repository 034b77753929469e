"""Shared fault-injection environment: a StorM cloud with every
recovery knob on (reliable TCP, iSCSI session recovery) plus a seeded
:class:`~repro.faults.FaultInjector` wired to a shared event log."""

import pytest

from repro.blockdev.disk import BLOCK_SIZE
from repro.cloud import CloudController
from repro.cloud.params import CloudParams
from repro.core import StorM
from repro.core.policy import ServiceSpec
from repro.faults import FaultInjector
from repro.obs import EventLog
from repro.services import install_default_services
from repro.sim import Simulator

from tests.core.conftest import assert_at_rest


def recovery_params(**overrides) -> CloudParams:
    """CloudParams with the failure-recovery features enabled."""
    defaults = dict(tcp_reliable=True, iscsi_session_recovery=True)
    defaults.update(overrides)
    return CloudParams(**defaults)


class FaultEnv:
    """A 4-compute/1-storage recoverable cloud with vm1/vol1 + injector."""

    def __init__(self, seed=7, volume_size=1024 * BLOCK_SIZE, params=None,
                 ha=False, ha_config=None):
        self.sim = Simulator()
        self.params = params or recovery_params()
        self.cloud = CloudController(self.sim, self.params)
        for i in range(1, 5):
            self.cloud.add_compute_host(f"compute{i}")
        self.storage = self.cloud.add_storage_host("storage1")
        self.tenant = self.cloud.create_tenant("acme")
        self.vm = self.cloud.boot_vm(
            self.tenant, "vm1", self.cloud.compute_hosts["compute1"]
        )
        self.volume = self.cloud.create_volume(self.tenant, "vol1", volume_size)
        self.log = EventLog()
        self.storm = StorM(
            self.sim, self.cloud, event_log=self.log, ha=ha, ha_config=ha_config
        )
        install_default_services(self.storm)
        self.injector = FaultInjector(self.sim, seed=seed, log=self.log)

    def run(self, gen):
        return self.sim.run(until=self.sim.process(gen))

    def spec(self, name="svc", kind="noop", relay="active", placement=None, **options):
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

        return self.run(do_attach()), mbs

    def storage_link(self):
        return self.storage.storage_iface.link

    def add_replica_target(self, name, size=None):
        """A second storage host with one replica volume on it."""
        host = self.cloud.add_storage_host(name)
        volume = self.cloud.create_volume(
            self.tenant, f"{name}-rvol", size or self.volume.size, storage_host=host
        )
        return host, volume


@pytest.fixture
def env():
    env = FaultEnv()
    yield env
    assert_at_rest(env.storm)
