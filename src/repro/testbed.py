"""The paper's §V-A testbed, built in one place.

Compute hosts ``compute1..N`` plus ``storage1``; tenant ``acme`` with
``vm1`` on ``compute1`` and its volume ``vol1``; StorM with the default
services; and a seeded :class:`~repro.faults.FaultInjector`.  With
``obs=True`` one instrumented :class:`~repro.obs.ObsBus` carries the
request spans and, through the injector, the fault timeline, which
:meth:`Testbed.events` reads back.  Examples, tests, the figure
benchmarks and the pinned results all build from here; a one-off need
(a second storage host, a snapshottable volume) is made on the returned
bed through ``bed.cloud``.

A bed owns its whole run: every id the run allocates comes from the
bed's own :class:`~repro.sim.Simulator` or from an object the bed
built, so two beds built back to back in one process run identically.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.blockdev.disk import BLOCK_SIZE
from repro.cloud import CloudController, CloudParams
from repro.core import Reconciler, StorM
from repro.core.policy import ServiceSpec
from repro.core.relay import ActiveRelay
from repro.faults import FaultInjector
from repro.obs import ObsBus, events_of, instrument
from repro.services import install_default_services
from repro.sim import Simulator


def assert_at_rest(storm: StorM) -> None:
    """The state every scenario must end in: no saga left in flight, no
    drift between intent and the switch/NAT tables, and an empty relay
    journal on every active box that no live chain holds."""
    in_flight = storm.intent_log.incomplete()
    assert in_flight == [], f"sagas still in flight: {in_flight}"
    drift = Reconciler(storm).audit()
    assert drift == [], f"reconciler audit found drift: {drift}"
    for mb in storm.middleboxes.values():
        relay = mb.relay
        if isinstance(relay, ActiveRelay) and not storm.in_chain(mb):
            leaked = relay.nvm or relay._command_entries
            assert not leaked, f"{mb.name} journal outlived its flow: {leaked}"


class Testbed:
    """One tenant VM and volume on a small cloud, StorM on top."""

    __test__ = False  # not a pytest test class despite the name

    def __init__(
        self,
        params: Optional[CloudParams] = None,
        *,
        compute_hosts: int = 4,
        volume_size: int = 1024 * BLOCK_SIZE,
        ha: bool = False,
        ha_config: Any = None,
        obs: bool = False,
        seed: int = 7,
    ):
        self.sim = Simulator()
        self.cloud = CloudController(self.sim, params)
        self.params = self.cloud.params
        for i in range(1, compute_hosts + 1):
            self.cloud.add_compute_host(f"compute{i}")
        self.storage = self.cloud.add_storage_host("storage1")
        self.tenant = self.cloud.create_tenant("acme")
        self.vm = self.cloud.boot_vm(
            self.tenant, "vm1", self.cloud.compute_hosts["compute1"]
        )
        self.volume = self.cloud.create_volume(self.tenant, "vol1", volume_size)
        self.storm = StorM(self.sim, self.cloud, ha=ha, ha_config=ha_config)
        install_default_services(self.storm)
        self.bus: Optional[ObsBus] = None
        if obs:
            self.bus = ObsBus(self.sim)
            instrument(self.bus, storm=self.storm)
        self.injector = FaultInjector(self.sim, seed=seed, obs=self.bus)
        #: the flow and session of the last :meth:`attach`
        self.flow: Any = None
        self.session: Any = None

    def run(self, gen: Any) -> Any:
        """Run the process ``gen`` to completion; return its value."""
        return self.sim.run(until=self.sim.process(gen))

    def spec(
        self, name: str = "svc", kind: str = "noop", relay: str = "active",
        placement: Optional[str] = None, **options: Any,
    ) -> ServiceSpec:
        return ServiceSpec(
            name=name, kind=kind, relay=relay, placement=placement, options=options
        )

    def attach(
        self, specs: list[ServiceSpec], ingress_host: str = "compute2",
        egress_host: str = "compute4",
    ) -> tuple[Any, list[Any]]:
        """Provision middle-boxes from ``specs`` and attach ``vol1`` to
        ``vm1`` through them, gateways on the two named hosts."""
        mbs = [self.storm.provision_middlebox(self.tenant, spec) for spec in specs]
        hosts = self.cloud.compute_hosts

        # the attach runs as a child of a driver process: the pinned event
        # counts of every attached scenario include that process's events
        def attach() -> Any:
            return (
                yield self.sim.process(
                    self.storm.attach_with_services(
                        self.tenant, self.vm, "vol1", mbs,
                        ingress_host=hosts[ingress_host],
                        egress_host=hosts[egress_host],
                    )
                )
            )

        self.flow = self.run(attach())
        self.session = self.flow.session
        return self.flow, mbs

    def events(self, prefix: str = "") -> list[dict]:
        """The timeline: bus events whose kind starts with ``prefix``
        (needs ``obs=True``)."""
        return events_of(self.bus.records, kind=prefix)

    def add_replica_target(self, name: str, size: Optional[int] = None) -> tuple[Any, Any]:
        """A second storage host with one replica volume on it."""
        host = self.cloud.add_storage_host(name)
        volume = self.cloud.create_volume(
            self.tenant, f"{name}-rvol", size or self.volume.size, storage_host=host
        )
        return host, volume
