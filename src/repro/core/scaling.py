"""On-demand middle-box scaling (paper §II-B, §III-A).

"These services, like VMs, can be scaled up and down, depending upon
the traffic load, making them truly elastic" — StorM "provides
on-demand middle-box service scaling by dynamically adding or removing
middle-boxes on the storage traffic path by programming SDN switches."

:class:`MiddleboxAutoscaler` watches the packet load of a pool of
forwarding-mode middle-boxes serving a set of flows, grows the pool
when the per-box load crosses the high watermark, shrinks it at the
low watermark, and rebalances flows across the pool purely by
reprogramming steering rules (no connection state moves — which is
why, like :meth:`~repro.core.platform.StorM.reconfigure_chain`, this
is restricted to forwarding-mode chains).

Every pool change is a ``pool.<action>`` event on the platform's obs
bus (``grow``, ``shrink``, ``rebalance``, ``evict``, ``replace``,
``lend``, ``restore``) carrying the resulting ``pool_size`` and the
``load_per_box`` that triggered it (0.0 for non-load actions).
"""

from __future__ import annotations

from typing import Optional

from repro.core.middlebox import MiddleBox
from repro.core.platform import StorM, StorMFlow
from repro.core.policy import PolicyError, ServiceSpec


def resteer_flow(storm: StorM, flow: StorMFlow, middleboxes: list[MiddleBox]) -> bool:
    """Re-steer one flow onto a new forwarding chain via SDN only
    (make-before-break).  No-op if the chain is already the target.
    Shared by the autoscaler's rebalance and the control loop's
    fail-open bypass, heal and reinstate — all pure rule reprogramming."""
    if flow.middleboxes == list(middleboxes):
        return False
    storm.reconfigure_chain(flow, list(middleboxes))
    return True


class MiddleboxAutoscaler:
    """Elastic pool of interchangeable forwarding middle-boxes."""

    def __init__(
        self,
        storm: StorM,
        tenant,
        template: ServiceSpec,
        flows: list[StorMFlow],
        initial_pool: Optional[list[MiddleBox]] = None,
        min_size: int = 1,
        max_size: int = 4,
        check_interval: float = 0.5,
        high_watermark: float = 2000.0,  # packets/s per box
        low_watermark: float = 200.0,
    ):
        if template.relay != "fwd":
            raise PolicyError("autoscaling requires forwarding-mode middle-boxes")
        if min_size < 1 or max_size < min_size:
            raise PolicyError("need 1 <= min_size <= max_size")
        self.storm = storm
        self.tenant = tenant
        self.template = template
        self.flows = list(flows)
        self.pool: list[MiddleBox] = list(initial_pool or [])
        self.min_size = min_size
        self.max_size = max_size
        self.check_interval = check_interval
        self.high_watermark = high_watermark
        self.low_watermark = low_watermark
        self._clone_counter = 0
        self._last_packet_count = 0
        self.stopped = False
        self.replacements = 0
        #: boxes on loan to the :class:`~repro.core.reconcile.Reconciler`
        #: for full-strength chain healing (:meth:`borrow` / :meth:`restore`);
        #: they count against ``max_size`` but carry none of the pool's flows.
        self.lent: list[MiddleBox] = []

    def _emit(self, action: str, target: str, load_per_box: float = 0.0) -> None:
        obs = self.storm.obs
        if obs is not None:
            obs.event(f"pool.{action}", target=target, pool_size=len(self.pool),
                      load_per_box=load_per_box)

    # -- pool management ---------------------------------------------------

    def _provision_clone(self) -> MiddleBox:
        self._clone_counter += 1
        spec = ServiceSpec(
            name=f"{self.template.name}-clone{self._clone_counter}",
            kind=self.template.kind,
            vcpus=self.template.vcpus,
            memory_mb=self.template.memory_mb,
            relay="fwd",
            options=dict(self.template.options),
        )
        return self.storm.provision_middlebox(self.tenant, spec)

    def _pool_packets(self) -> int:
        return sum(mb.instance_iface.rx_packets for mb in self.pool)

    def _rebalance(self) -> None:
        """Assign flows round-robin across the pool via SDN only."""
        for index, flow in enumerate(self.flows):
            target = self.pool[index % len(self.pool)]
            resteer_flow(self.storm, flow, [target])
        self._emit("rebalance", self.template.name)

    # -- capacity lending (control-loop chain healing) ----------------------

    def borrow(self) -> Optional[MiddleBox]:
        """Lend one healthy forwarding box as replacement capacity.

        Prefers spare pool capacity (a box beyond ``min_size``, whose
        flows are first rebalanced off it); otherwise provisions a
        clone if the pool plus outstanding loans is under ``max_size``.
        Returns ``None`` when the tenant's capacity budget is
        exhausted — the caller falls back to bypass/quiesce."""
        if len(self.pool) > self.min_size:
            box = self.pool.pop()
            if self.flows:
                self._rebalance()  # steer pool flows off the loaned box
        elif len(self.pool) + len(self.lent) < self.max_size:
            box = self._provision_clone()
        else:
            return None
        self.lent.append(box)
        self._emit("lend", box.name)
        self._last_packet_count = self._pool_packets()
        return box

    def restore(self, box: MiddleBox) -> None:
        """Take a loaned box back: rejoin the pool if it is healthy and
        there is room, reclaim its VM otherwise."""
        if box not in self.lent:
            return
        self.lent.remove(box)
        if not getattr(box, "crashed", False) and len(self.pool) < self.max_size:
            self.pool.append(box)
            if self.flows:
                self._rebalance()
        else:
            self.storm.deprovision_middlebox(box)
        self._emit("restore", box.name)
        self._last_packet_count = self._pool_packets()

    def assignments(self) -> dict[str, list[str]]:
        """mb name -> flow volume names (for tests/observability)."""
        mapping: dict[str, list[str]] = {mb.name: [] for mb in self.pool}
        for flow in self.flows:
            for mb in flow.middleboxes:
                mapping.setdefault(mb.name, []).append(flow.volume_name)
        return mapping

    # -- the control loop -----------------------------------------------------

    def run(self, duration: Optional[float] = None):
        """Process: sample load every ``check_interval``; scale."""
        sim = self.storm.sim
        if not self.pool:
            self.pool.append(self._provision_clone())
            self._rebalance()
        self._last_packet_count = self._pool_packets()
        deadline = None if duration is None else sim.now + duration
        while not self.stopped and (deadline is None or sim.now < deadline):
            yield sim.timeout(self.check_interval)
            crashed = [mb for mb in self.pool if getattr(mb, "crashed", False)]
            if crashed:
                self._heal(crashed)
                continue
            total = self._pool_packets()
            rate = (total - self._last_packet_count) / self.check_interval
            self._last_packet_count = total
            per_box = rate / len(self.pool)
            if per_box > self.high_watermark and len(self.pool) < self.max_size:
                clone = self._provision_clone()
                self.pool.append(clone)
                self._emit("grow", clone.name, per_box)
                self._rebalance()
            elif per_box < self.low_watermark and len(self.pool) > self.min_size:
                retired = self.pool.pop()
                self._emit("shrink", retired.name, per_box)
                self._rebalance()  # steer flows off the box, then reclaim it
                self.storm.deprovision_middlebox(retired)

    def _heal(self, crashed: list[MiddleBox]) -> None:
        """Evict crashed boxes, provision replacements up to the pool
        target, re-steer flows, then reclaim the dead VMs' resources."""
        for mb in crashed:
            self.pool.remove(mb)
            self._emit("evict", mb.name)
        want = min(self.max_size, max(self.min_size, len(self.pool) + len(crashed)))
        while len(self.pool) < want:
            clone = self._provision_clone()
            self.pool.append(clone)
            self.replacements += 1
            self._emit("replace", clone.name)
        self._rebalance()
        for mb in crashed:
            self.storm.deprovision_middlebox(mb)
        # the dead boxes' packet counters left the pool with them
        self._last_packet_count = self._pool_packets()

    def stop(self) -> None:
        self.stopped = True
