"""Middle-box health watchdog (tenant-selectable failure policy).

A middle-box VM that crashes mid-flow leaves the tenant with a hard
choice the platform must make for them, per tenant policy:

- **fail-open** — availability first: *heal the chain at full
  strength* by borrowing replacement capacity from a
  :class:`~repro.core.scaling.MiddleboxAutoscaler` pool
  (``capacity_pool=``) — each dead member is substituted by a
  borrowed box and the flow re-steered onto the full-length chain, so
  no service link is dropped under load.  Only when the pool is
  exhausted (or no pool is wired) does the watchdog fall back to the
  classic bypass: re-steer the flow onto the surviving chain members
  (make-before-break, via the same SDN-only path the autoscaler's
  rebalance uses).  Either way the original chain is *reinstated* —
  and borrowed capacity returned — when the dead boxes come back.
  Only valid for forwarding-mode chains: an active relay holds
  per-flow TCP state that a bypass would corrupt.

- **fail-closed** — the service is load-bearing (encryption,
  access control): *quiesce* the flow with high-priority drop rules
  until every chain member is healthy again, then lift the quiesce and
  let TCP retransmission resume the connection.

Chains containing active relays are always fail-closed regardless of
policy.  Every transition is recorded (``watchdog.borrow`` /
``watchdog.heal`` / ``watchdog.bypass`` / ``watchdog.reinstate`` /
``watchdog.restore`` / ``watchdog.quiesce`` / ``watchdog.unquiesce``)
so chaos runs can narrate the failover timeline.

When the cloud runs with end-to-end integrity
(``CloudParams.integrity``), the watchdog also consults the
:class:`~repro.integrity.layer.TamperBreaker`: a flow whose breaker is
tripped by a tamper burst is held *fail-closed* — quiesced regardless
of tenant policy — until the breaker's cooldown expires
(``watchdog.integrity-trip`` / ``watchdog.integrity-clear``).
"""

from __future__ import annotations

from typing import Optional

from repro.core.middlebox import MiddleBox
from repro.core.relay import RelayMode
from repro.core.scaling import resteer_flow

FAIL_OPEN = "fail-open"
FAIL_CLOSED = "fail-closed"


def _mb_healthy(mb: MiddleBox) -> bool:
    if getattr(mb, "crashed", False):
        return False
    iface = getattr(mb, "instance_iface", None)
    return iface is None or iface.link is not None


class ChainWatchdog:
    """Periodically probes every middle-box of the watched flows and
    applies the tenant's failure policy on state changes."""

    def __init__(
        self,
        storm,
        flows=None,
        check_interval: float = 0.25,
        default_policy: str = FAIL_OPEN,
        tenant_policies: Optional[dict[str, str]] = None,
        capacity_pool=None,
    ):
        if default_policy not in (FAIL_OPEN, FAIL_CLOSED):
            raise ValueError(f"unknown watchdog policy {default_policy!r}")
        self.storm = storm
        #: None = watch every platform flow, live list otherwise
        self.flows = flows
        self.check_interval = check_interval
        self.default_policy = default_policy
        self.tenant_policies = dict(tenant_policies or {})
        #: :class:`~repro.core.scaling.MiddleboxAutoscaler` to borrow
        #: replacement capacity from on fail-open (None = bypass only)
        self.capacity_pool = capacity_pool
        #: flow cookie -> the chain the tenant *wants* (first seen);
        #: StorMFlow holds lists and is unhashable, so key by cookie.
        self._desired: dict[str, list[MiddleBox]] = {}
        #: flow cookies currently steered around dead members
        self._bypassed: set[str] = set()
        #: flow cookies quiesced by an integrity-breaker trip (kept
        #: separate from the health quiesce so a clean probe round
        #: cannot lift a tamper lockout early)
        self._integrity_quiesced: set[str] = set()
        #: flow cookie -> {dead member name: borrowed replacement}
        self._borrowed: dict[str, dict[str, MiddleBox]] = {}
        self.stopped = False

    def _record(self, kind: str, flow, **detail) -> None:
        obs = self.storm.obs
        if obs is not None:
            obs.event(kind, target=flow.cookie, **detail)

    def _policy(self, flow) -> str:
        policy = self.tenant_policies.get(flow.tenant_name, self.default_policy)
        if any(mb.relay_mode is RelayMode.ACTIVE for mb in self._desired[flow.cookie]):
            return FAIL_CLOSED  # bypass would corrupt relay TCP state
        return policy

    def _watched_flows(self):
        flows = self.storm.flows if self.flows is None else self.flows
        return [f for f in flows if not f.detached]

    # -- one probe round ----------------------------------------------------

    def tick(self) -> None:
        obs = self.storm.obs
        if obs is not None:
            obs.metrics.counter("watchdog.probes").inc()
        flows = self._watched_flows()
        self._forget_detached(flows)
        for flow in flows:
            desired = self._desired.setdefault(
                flow.cookie, list(flow.middleboxes)
            )
            if self._apply_integrity(flow):
                continue  # tamper lockout overrides the health policy
            if not desired:
                continue
            dead = [mb for mb in desired if not _mb_healthy(mb)]
            if self._policy(flow) == FAIL_CLOSED:
                self._apply_fail_closed(flow, dead)
            else:
                self._apply_fail_open(flow, desired, dead)

    def _forget_detached(self, flows) -> None:
        """Detached flows have left the rules: drop their desired-chain
        and bypass entries and return any boxes still on loan, so
        watchdog state stays O(active flows) under fleet churn."""
        live = {f.cookie for f in flows}
        for cookie in [c for c in self._desired if c not in live]:
            del self._desired[cookie]
            self._bypassed.discard(cookie)
            self._integrity_quiesced.discard(cookie)
            lent = self._borrowed.pop(cookie, None)
            if lent and self.capacity_pool is not None:
                for name in lent:
                    self.capacity_pool.restore(lent[name])

    def _demote_express(self, reason: str) -> None:
        """Watchdog actions change the data path out from under any
        promoted flow: force everything back to packet mode first."""
        express = self.storm.sim.express
        if express is not None:
            express.demote_all(reason)

    def _apply_integrity(self, flow) -> bool:
        """Hold the flow fail-closed while its tamper breaker is
        tripped.  True = the lockout is active and normal policy is
        suspended for this probe round; on expiry the cookie is cleared
        and the regular policy path (which unquiesces a healthy chain)
        takes over again."""
        layer = getattr(self.storm, "integrity", None)
        if layer is None:
            return False
        iqn = self.storm._flow_iqn(flow)
        if iqn is None:
            return False
        if layer.tripped(iqn):
            if flow.cookie not in self._integrity_quiesced:
                self._integrity_quiesced.add(flow.cookie)
                self._demote_express("integrity-trip")
                if not flow.chain.quiesced:
                    flow.chain.quiesce()
                self._record("watchdog.integrity-trip", flow, iqn=iqn)
            return True
        if flow.cookie in self._integrity_quiesced:
            self._integrity_quiesced.discard(flow.cookie)
            self._record("watchdog.integrity-clear", flow)
            # a chainless flow never reaches the policy paths below, so
            # lift its quiesce here; chained flows unquiesce there
            if not self._desired.get(flow.cookie) and flow.chain.quiesced:
                flow.chain.unquiesce()
                self._record("watchdog.unquiesce", flow)
        return False

    def _apply_fail_closed(self, flow, dead) -> None:
        if dead and not flow.chain.quiesced:
            self._demote_express("watchdog-quiesce")
            flow.chain.quiesce()
            self._record("watchdog.quiesce", flow, dead=[mb.name for mb in dead])
        elif not dead and flow.chain.quiesced:
            flow.chain.unquiesce()
            self._record("watchdog.unquiesce", flow)

    def _borrow_replacements(self, flow, dead, lent) -> list[MiddleBox]:
        """Bring the flow's loan ledger up to date: pop entries that no
        longer apply (the member recovered, or the replacement itself
        died) and borrow a replacement for every dead member without
        one.  Returns the popped boxes — the caller restores them to
        the pool *after* re-steering the flow off them."""
        returns: list[MiddleBox] = []
        dead_names = {mb.name for mb in dead}
        for name in [n for n in lent if n not in dead_names or not _mb_healthy(lent[n])]:
            returns.append(lent.pop(name))
        for mb in dead:
            if mb.name in lent:
                continue
            replacement = self.capacity_pool.borrow()
            if replacement is None:
                break  # capacity budget exhausted: bypass what's left
            lent[mb.name] = replacement
            self._record(
                "watchdog.borrow", flow, dead=mb.name, replacement=replacement.name
            )
        return returns

    def _apply_fail_open(self, flow, desired, dead) -> None:
        if dead:
            returns: list[MiddleBox] = []
            if self.capacity_pool is not None:
                lent = self._borrowed.setdefault(flow.cookie, {})
                returns = self._borrow_replacements(flow, dead, lent)
            else:
                lent = {}
            # full-strength first: every desired member, substituting
            # borrowed replacements for the dead; bypass is what's left
            # when the pool couldn't cover someone
            target = [
                mb if _mb_healthy(mb) else lent.get(mb.name)
                for mb in desired
            ]
            target = [mb for mb in target if mb is not None]
            if not target:
                # nothing to steer through — last-resort quiesce rather
                # than steering traffic at a dark MAC; keep any popped
                # loans on the ledger (they may still be in the rules)
                for box in returns:
                    lent[f"{box.name}"] = box
                self._apply_fail_closed(flow, dead)
                return
            if flow.chain.quiesced:  # partial recovery from a total outage
                flow.chain.unquiesce()
                self._record("watchdog.unquiesce", flow)
            healed = all(mb.name in lent for mb in dead)
            self._demote_express("watchdog-heal" if healed else "watchdog-bypass")
            if resteer_flow(self.storm, flow, target):
                if healed:
                    self._record(
                        "watchdog.heal",
                        flow,
                        dead=[mb.name for mb in dead],
                        chain=[mb.name for mb in target],
                    )
                else:
                    self._bypassed.add(flow.cookie)
                    self._record(
                        "watchdog.bypass",
                        flow,
                        dead=[mb.name for mb in dead],
                        chain=[mb.name for mb in target],
                    )
            for box in returns:  # now off the flow's rules: safe to return
                self._restore_box(flow, box)
        else:
            if flow.chain.quiesced:  # recovery from a total outage
                flow.chain.unquiesce()
                self._record("watchdog.unquiesce", flow)
            lent = self._borrowed.pop(flow.cookie, None)
            if lent or flow.cookie in self._bypassed:
                if resteer_flow(self.storm, flow, desired):
                    self._record(
                        "watchdog.reinstate", flow, chain=[mb.name for mb in desired]
                    )
                self._bypassed.discard(flow.cookie)
                for name in lent or {}:
                    self._restore_box(flow, lent[name])

    def _restore_box(self, flow, box: MiddleBox) -> None:
        self._record("watchdog.restore", flow, replacement=box.name)
        self.capacity_pool.restore(box)

    # -- the loop -----------------------------------------------------------

    def run(self, duration: Optional[float] = None):
        """Process: probe every ``check_interval`` until stopped."""
        sim = self.storm.sim
        deadline = None if duration is None else sim.now + duration
        while not self.stopped and (deadline is None or sim.now < deadline):
            yield sim.timeout(self.check_interval)
            self.tick()

    def stop(self) -> None:
        self.stopped = True
