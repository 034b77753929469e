"""On-demand middle-box scaling (paper §II-B, §III-A).

"These services, like VMs, can be scaled up and down, depending upon
the traffic load, making them truly elastic" — StorM "provides
on-demand middle-box service scaling by dynamically adding or removing
middle-boxes on the storage traffic path by programming SDN switches."

A :class:`ScalingPool` is a declaration in platform state
(``storm.pools``, one per tenant): a template for interchangeable
forwarding-mode middle-boxes, the flows they serve, ``min_size`` /
``max_size`` and per-box packet-rate watermarks.  It runs nothing.
The one chain control loop, :class:`~repro.core.reconcile.Reconciler`,
applies the pool's width policy on every tick, and its fail-open
policy borrows from the pool.  The pool's shape is derived, not
stored:

- a **member** is a box in ``storm.middleboxes`` that a committed
  provision or adopt step marked for the pool (``MiddleBox.pool``);
- a **loan** is a member in the current chain of a live flow outside
  the pool; loans count against ``max_size``;
- the pool's own flows are assigned round-robin over its healthy
  members not on loan, and that committed assignment is each flow's
  desired chain.

Flows move purely by reprogramming steering rules (no connection
state moves — which is why, like
:meth:`~repro.core.platform.StorM.reconfigure_chain`, pools are
restricted to forwarding-mode boxes).

Every pool change is a ``pool.<action>`` event on the platform's obs
bus (``grow``, ``shrink``, ``rebalance``, ``evict``, ``replace``,
``lend``, ``restore``) carrying the resulting ``pool_size`` and the
``load_per_box`` that triggered it (0.0 for non-load actions).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional

from repro.core.middlebox import MiddleBox
from repro.core.platform import StorM, StorMFlow
from repro.core.policy import PolicyError, ServiceSpec
from repro.core.saga import SagaStep


def healthy(mb: MiddleBox) -> bool:
    """Up, with its NIC plugged."""
    return not mb.crashed and mb.instance_iface.link is not None


class ScalingPool:
    """A tenant's elastic pool of interchangeable forwarding middle-boxes.

    Declaring it runs one ``declare_pool`` saga whose ``adopt`` step
    marks ``initial_pool`` and registers the pool in ``storm.pools``."""

    def __init__(
        self,
        storm: StorM,
        tenant,
        template: ServiceSpec,
        flows: list[StorMFlow],
        initial_pool: Optional[list[MiddleBox]] = None,
        min_size: int = 1,
        max_size: int = 4,
        high_watermark: float = 2000.0,  # packets/s per box
        low_watermark: float = 200.0,
    ):
        if template.relay != "fwd":
            raise PolicyError("autoscaling requires forwarding-mode middle-boxes")
        if min_size < 1 or max_size < min_size:
            raise PolicyError("need 1 <= min_size <= max_size")
        if tenant.name in storm.pools:
            raise PolicyError(f"tenant {tenant.name!r} already has a scaling pool")
        self.storm = storm
        self.tenant = tenant
        self.template = template
        #: the pool's own flows in assignment order (a dict: O(1) ownership)
        self.flows: dict[StorMFlow, None] = dict.fromkeys(flows)
        self.min_size = min_size
        self.max_size = max_size
        self.high_watermark = high_watermark
        self.low_watermark = low_watermark
        boxes = list(initial_pool or [])
        #: (simulated time, rx_packets by member name) at the last
        #: measurement; the width policy's load is the delta since
        self._measured = (storm.sim.now, {mb.name: mb.instance_iface.rx_packets for mb in boxes})

        def adopt() -> None:
            for mb in boxes:
                mb.pool = tenant.name
            storm.pools[tenant.name] = self

        def unadopt() -> None:
            for mb in boxes:
                mb.pool = None
            storm.pools.pop(tenant.name, None)

        engine = storm.engine
        step = SagaStep("adopt", do=adopt, undo=unadopt, locked=False)
        engine.run_now(engine.begin("declare_pool", f"storm-pool:{tenant.name}", [step]))

    # -- derived views ------------------------------------------------------

    def members(self) -> list[MiddleBox]:
        """Boxes marked for the pool and not deprovisioned, oldest first."""
        name = self.tenant.name
        return [mb for mb in self.storm.middleboxes.values() if mb.pool == name]

    def loans(self, members: Optional[list[MiddleBox]] = None) -> list[MiddleBox]:
        """Members in the current chain of a live flow outside the pool."""
        flows = self.storm.flows
        chained = {mb.name for f in flows if f not in self.flows for mb in f.middleboxes}
        if members is None:
            members = self.members()
        return [mb for mb in members if mb.name in chained]

    def serving(self) -> list[MiddleBox]:
        """Healthy members not on loan: what the pool's flows run on."""
        members = self.members()
        lent = self.loans(members)
        return [mb for mb in members if mb not in lent and healthy(mb)]

    def assignments(self) -> dict[str, list[str]]:
        """mb name -> flow volume names (for tests/observability)."""
        mapping: dict[str, list[str]] = {mb.name: [] for mb in self.serving()}
        for flow in self.flows:
            for mb in flow.middleboxes:
                mapping.setdefault(mb.name, []).append(flow.volume_name)
        return mapping

    # -- what the control loop calls ------------------------------------------

    def load_per_box(self, live: list[MiddleBox]) -> Optional[float]:
        """Packets/s per box of ``live`` since the last measurement, then
        measure anew; None when ``live`` is empty or no time passed."""
        now = self.storm.sim.now
        then, seen = self._measured
        self._measured = (now, {mb.name: mb.instance_iface.rx_packets for mb in self.members()})
        if not live or now <= then:
            return None
        packets = sum(mb.instance_iface.rx_packets - seen.get(mb.name, 0) for mb in live)
        return packets / (now - then) / len(live)

    def provision(self, replaces: Optional[MiddleBox] = None) -> MiddleBox:
        """A new member from the template, placed on any host with its
        own options; its provision step unmarks the dead ``replaces``."""
        spec = replace(self.template, placement=None, options=dict(self.template.options))
        return self.storm.provision_middlebox(self.tenant, spec, self.tenant.name, replaces)

    def room(self, members: list[MiddleBox]) -> int:
        """Boxes the pool may add: ``max_size`` less its healthy members."""
        return self.max_size - sum(1 for mb in members if healthy(mb))

    def spare(self, count: int) -> list[MiddleBox]:
        """Up to ``count`` healthy boxes to lend: serving members beyond
        ``min_size``, newest first, then new members within room()."""
        boxes = self.serving()[self.min_size:][::-1][:count]
        for _ in range(min(count - len(boxes), self.room(self.members()))):
            boxes.append(self.provision())
        return boxes

    def record(self, action: str, target: str, pool_size: int, load: float = 0.0) -> None:
        """One ``pool.<action>`` event on the platform's bus."""
        obs = self.storm.obs
        if obs is not None:
            obs.event(f"pool.{action}", target=target, pool_size=pool_size, load_per_box=load)
