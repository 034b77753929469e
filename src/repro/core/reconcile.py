"""The chain control loop: keep every committed chain in force.

One periodic :class:`Reconciler` holds each live flow to one desired
state (:attr:`StorMFlow.desired <repro.core.platform.StorMFlow.desired>`:
the chain its attach or last ``reconfigure_chain`` committed, its
scaling pool's assignment for a pool's flow) and closes the drift no
single saga owns.  Each
:meth:`Reconciler.tick` builds the live-flow set once, runs every
declared pool's width policy, applies the tenant's failure policy to
every flow, then audits and repairs.

**Width policy.**  For each :class:`~repro.core.scaling.ScalingPool`
in ``storm.pools`` the tick recomputes the target width from the
members' packet rate since the last tick (or one clone per dead
member) and the pool's round-robin flow assignment, then runs only the
sagas that close the gap: provision, ``reconfigure_chain``,
deprovision.

**Failure policy.**  A chain member that crashed (or lost its NIC)
leaves the tenant with a choice the platform makes per tenant:

- **fail-open** — availability first: *heal the chain at full
  strength* with loans from the tenant's scaling pool, each dead
  member substituted in place.  Only when the pool cannot spare a box
  (or the tenant has none) does the loop fall back to a bypass:
  re-steer the flow onto the surviving members.  When the dead boxes
  come back the desired chain is *reinstated* and the loans go back
  to the pool.  These re-steers are detours
  (``reconfigure_chain(..., detour=True)``) that leave the desired
  chain as it was.  Only valid for forwarding-mode chains: an active relay
  holds per-flow TCP state that a bypass would corrupt.
- **fail-closed** — the service is load-bearing (encryption, access
  control): *quiesce* the flow with high-priority drop rules until
  every member is healthy, then lift them and let TCP retransmission
  resume the connection.  Chains with an active relay are always
  fail-closed.

With end-to-end integrity (``CloudParams.integrity``) a flow whose
:class:`~repro.integrity.layer.TamperBreaker` is tripped is held
fail-closed regardless of policy until the breaker's cooldown expires.
Every transition is a ``watchdog.*`` bus event (``borrow``, ``heal``,
``bypass``, ``reinstate``, ``restore``, ``quiesce``, ``unquiesce``,
``integrity-trip``, ``integrity-clear``).

**Audit and repair.**  ``audit()`` is read-only and compares

- **desired state**: the platform's live flows, their current and
  desired chains, and the scaling pools' members;
- **actual state**: the rules in the switch tables
  (:meth:`~repro.net.sdn.SdnController.iter_rules`) and the NAT tables
  on compute hosts and gateways;
- **in-flight state**: the intent log's live sagas, whose transient
  artifacts (wildcard rules, attach NAT) are expected, not drift;

and returns :class:`Drift` records; ``repair()`` fixes them and emits
one ``reconcile.*`` bus event per repair.

**Writes.**  Every write the loop makes is a saga on ``storm.engine``
— quiesce and unquiesce are one-step sagas, a repair is one saga with
a step per drift, every re-steer is ``reconfigure_chain``, a pool
grows and shrinks by (de)provisioning — so each is journaled, shipped
under HA and checked against ``engine.authority``.  A tick that meets :class:`ControllerCrashed`
writes nothing more; the next tick works the state out again.

``python -m repro.core.reconcile --list-invariants`` prints the
audited invariants (used by CI as a smoke check).
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass, field
from functools import partial
from typing import Optional

from repro.core.relay import RelayMode
from repro.core.saga import ControllerCrashed, SagaStep
from repro.core.scaling import healthy

FAIL_OPEN = "fail-open"
FAIL_CLOSED = "fail-closed"

#: (key, invariant) pairs — what ``audit`` checks.  Each Drift record
#: carries the key of the invariant it violates.
INVARIANTS: list[tuple[str, str]] = [
    (
        "rule-orphan",
        "every storm:/storm-obj: steering rule family on any switch belongs "
        "to a live flow or an in-flight saga",
    ),
    (
        "rule-stale-gen",
        "a live flow has rules only for its active generation (plus quiesce "
        "rules while quiesced) — no shadowed generations survive a swap",
    ),
    (
        "rule-missing",
        "a live flow's active generation has its full rule set (2 rules per "
        "middle-box) installed in the switch tables",
    ),
    (
        "nat-orphan",
        "no storm-cookied NAT rule exists on any compute host or gateway "
        "outside an in-flight attach saga",
    ),
    (
        "mb-orphan",
        "a crashed middle-box is in a live flow's current or desired chain, "
        "or a member of its tenant's scaling pool (whose width policy "
        "evicts it); otherwise it is deprovisioned",
    ),
]

_STORM_PREFIXES = ("storm:", "storm-obj:")


def _base_cookie(cookie: str) -> str:
    """Strip the generation/quiesce suffix: ``a#g2`` -> ``a``."""
    return cookie.split("#", 1)[0]


@dataclass
class Drift:
    """One detected divergence between desired and actual state."""

    kind: str  # an INVARIANTS key
    target: str  # cookie / host / middle-box name
    detail: dict = field(default_factory=dict)

    def __repr__(self) -> str:
        extras = " ".join(f"{k}={v}" for k, v in self.detail.items())
        return f"Drift({self.kind}, {self.target}{', ' + extras if extras else ''})"


class Reconciler:
    """Holds every live flow to its desired chain: applies the tenant
    failure policy, then audits and repairs SDN/NAT/middle-box state."""

    def __init__(
        self,
        storm,
        default_policy: str = FAIL_OPEN,
        tenant_policies: Optional[dict[str, str]] = None,
    ):
        if default_policy not in (FAIL_OPEN, FAIL_CLOSED):
            raise ValueError(f"unknown failure policy {default_policy!r}")
        self.storm = storm
        self.default_policy = default_policy
        self.tenant_policies = dict(tenant_policies or {})
        #: flow cookies quiesced by an integrity-breaker trip (kept
        #: apart from the health quiesce so a healthy chain cannot lift
        #: a tamper lockout early)
        self._integrity_quiesced: set[str] = set()
        self.repairs: list[Drift] = []
        self.stopped = False

    # -- state sources ------------------------------------------------------

    def _live_flows(self):
        return [f for f in self.storm.flows if not f.detached]

    def _iter_nat_tables(self):
        yield from self.storm.cloud.iter_nat_tables()
        for pair in self.storm.gateway_pairs.values():
            yield pair.ingress.name, pair.ingress.stack.nat
            yield pair.egress.name, pair.egress.stack.nat

    def _record(self, kind: str, flow, **detail) -> None:
        obs = self.storm.obs
        if obs is not None:
            obs.event(kind, target=flow.cookie, **detail)

    # -- one tick -----------------------------------------------------------

    def tick(self) -> None:
        """Run every pool's width policy, apply the failure policy to
        every live flow, then audit and repair.  Stops writing at the
        first :class:`ControllerCrashed`."""
        obs = self.storm.obs
        if obs is not None:
            obs.metrics.counter("watchdog.probes").inc()
        flows = self._live_flows()
        try:
            # forget detached flows: the loop stays O(active flows)
            self._integrity_quiesced &= {f.cookie for f in flows}
            for pool in self.storm.pools.values():
                self._scale(pool)
            for flow in flows:
                if not self._apply_integrity(flow):
                    self._apply_policy(flow)
            self._repair(flows)
        except ControllerCrashed:
            pass  # the controller is down: the next tick starts over

    def _scale(self, pool) -> None:
        """The width policy: bring one pool to its target width and
        round-robin assignment.  Level-triggered: the target comes from
        derived state every tick and only the sagas that close the gap
        run, so a crash between two leaves nothing the next tick
        cannot see."""
        members = pool.members()
        lent = pool.loans(members)
        live = [mb for mb in members if mb not in lent and healthy(mb)]
        dead = [mb for mb in members if mb not in lent and not healthy(mb)]
        load = pool.load_per_box(live)
        want = len(live)
        if dead or not live:  # replace the dead 1:1, at least min_size
            want = max(pool.min_size, want + len(dead))
        elif load is not None and load > pool.high_watermark:
            want += 1
        elif load is not None and load < pool.low_watermark:
            want = max(pool.min_size, want - 1)
        want = min(want, len(live) + pool.room(members))
        if want < 1:
            return  # nothing healthy to steer onto: the failure policy holds
        for mb in dead:
            pool.record("evict", mb.name, len(live))
        unreplaced = list(dead)
        while len(live) < want:
            live.append(pool.provision(unreplaced.pop(0) if unreplaced else None))
            pool.record("replace" if dead else "grow", live[-1].name, len(live),
                        0.0 if dead else load or 0.0)
        retired = live[want:]
        del live[want:]
        for mb in retired:
            pool.record("shrink", mb.name, len(live), load or 0.0)
        for flow in [f for f in pool.flows if f.detached]:
            del pool.flows[flow]  # forget detached flows for good
        moved = False
        for i, flow in enumerate(pool.flows):
            box = live[i % len(live)]
            if flow.middleboxes != [box] or flow.desired != (box,):
                self.storm.reconfigure_chain(flow, [box])  # commits the assignment
                moved = True
        if moved:
            pool.record("rebalance", pool.template.name, len(live))
        for mb in dead + retired:
            if not self.storm.in_chain(mb):
                self.storm.deprovision_middlebox(mb)

    def _set_quiesced(self, flow, quiesced: bool) -> None:
        """Quiesce or unquiesce one flow as a one-step saga."""
        chain = flow.chain
        op = "quiesce" if quiesced else "unquiesce"
        step = SagaStep(
            op,
            do=chain.quiesce if quiesced else chain.unquiesce,
            undo=chain.unquiesce,
            locked=False,
        )
        engine = self.storm.engine
        engine.run_now(engine.begin(op, flow.cookie, [step]))

    def _apply_integrity(self, flow) -> bool:
        """Hold the flow fail-closed while its tamper breaker is
        tripped.  True = the lockout is active and the failure policy
        is suspended for this tick; once it clears, the policy (which
        unquiesces a healthy chain) takes over again."""
        layer = self.storm.integrity
        if layer is None:
            return False
        iqn = self.storm._flow_iqn(flow)
        if iqn is None:
            return False
        if layer.tripped(iqn):
            if flow.cookie not in self._integrity_quiesced:
                if not flow.chain.quiesced:
                    self._set_quiesced(flow, True)
                self._integrity_quiesced.add(flow.cookie)
                self._record("watchdog.integrity-trip", flow, iqn=iqn)
            return True
        if flow.cookie in self._integrity_quiesced:
            self._integrity_quiesced.discard(flow.cookie)
            self._record("watchdog.integrity-clear", flow)
        return False

    def _apply_policy(self, flow) -> None:
        dead = [mb for mb in flow.desired if not healthy(mb)]
        policy = self.tenant_policies.get(flow.tenant_name, self.default_policy)
        if any(mb.relay_mode is RelayMode.ACTIVE for mb in flow.desired):
            policy = FAIL_CLOSED  # a bypass would corrupt relay TCP state
        if policy == FAIL_CLOSED:
            self._fail_closed(flow, dead)
        else:
            self._fail_open(flow, dead)

    def _fail_closed(self, flow, dead) -> None:
        if dead and not flow.chain.quiesced:
            self._set_quiesced(flow, True)
            self._record("watchdog.quiesce", flow, dead=[mb.name for mb in dead])
        elif not dead and flow.chain.quiesced:
            self._set_quiesced(flow, False)
            self._record("watchdog.unquiesce", flow)

    def _fail_open(self, flow, dead) -> None:
        pool = self.storm.pools.get(flow.tenant_name)
        if pool is not None and flow in pool.flows:
            pool = None  # the width policy owns the pool's own flows
        # a box in a live chain is never deprovisioned: the mark is enough
        lent = [mb for mb in flow.middleboxes if pool and mb.pool == flow.tenant_name]
        subs = [mb for mb in lent if healthy(mb)]
        borrowed = pool.spare(len(dead) - len(subs)) if pool and len(dead) > len(subs) else []
        # full strength first: every desired member, a loan in place of
        # each dead one; the bypass is what the pool could not cover
        cover = dict(zip([mb.name for mb in dead], subs + borrowed))
        target = [mb if healthy(mb) else cover[mb.name]
                  for mb in flow.desired if healthy(mb) or mb.name in cover]
        if not target:
            # nothing to steer through: quiesce, not steer at a dark MAC
            self._fail_closed(flow, dead)
            return
        if flow.chain.quiesced:  # recovery from a total outage
            self._set_quiesced(flow, False)
            self._record("watchdog.unquiesce", flow)
        if flow.middleboxes != target:
            # a detour: the flow keeps its desired chain to come back to
            self.storm.reconfigure_chain(flow, target, detour=True)
            chain = [mb.name for mb in target]
            for name, box in cover.items():
                if box in borrowed:
                    self._record("watchdog.borrow", flow, dead=name, replacement=box.name)
                    pool.record("lend", box.name, len(pool.serving()))
            if not dead:
                self._record("watchdog.reinstate", flow, chain=chain)
            else:
                kind = "watchdog.heal" if len(cover) == len(dead) else "watchdog.bypass"
                self._record(kind, flow, dead=[mb.name for mb in dead], chain=chain)
        # a loan the chain let go of is the pool's again; a dead one is
        # reclaimed
        for box in lent:
            if box not in flow.middleboxes:
                self._record("watchdog.restore", flow, replacement=box.name)
                if not healthy(box) and not self.storm.in_chain(box):
                    self.storm.deprovision_middlebox(box)
                pool.record("restore", box.name, len(pool.serving()))

    # -- audit --------------------------------------------------------------

    def audit(self) -> list[Drift]:
        """Read-only sweep; returns every invariant violation found."""
        return self._audit(self._live_flows())

    def _audit(self, flows) -> list[Drift]:
        obs = self.storm.obs
        if obs is not None:
            obs.metrics.counter("reconcile.audits").inc()
        drifts: list[Drift] = []
        flows_by_cookie = {f.cookie: f for f in flows}
        in_flight = self.storm.intent_log.in_flight_cookies()

        # actual rule state, grouped by base cookie
        actual: dict[str, list[tuple[str, object]]] = {}
        for switch_name, rule in self.storm.cloud.sdn.iter_rules():
            if rule.cookie is None:
                continue
            base = _base_cookie(rule.cookie)
            if base.startswith(_STORM_PREFIXES):
                actual.setdefault(base, []).append((switch_name, rule))

        for base, placed in actual.items():
            flow = flows_by_cookie.get(base)
            if flow is None:
                if base not in in_flight:
                    drifts.append(
                        Drift("rule-orphan", base, {"rules": len(placed)})
                    )
                continue
            active = flow.chain.active_cookie
            stale = sorted(
                {
                    rule.cookie
                    for _sw, rule in placed
                    if rule.cookie != active and not rule.cookie.endswith("#quiesce")
                }
            )
            if stale and base not in in_flight:
                drifts.append(Drift("rule-stale-gen", base, {"cookies": stale}))

        for flow in flows:
            if not flow.middleboxes or flow.cookie in in_flight:
                continue
            active = flow.chain.active_cookie
            have = sum(
                1
                for _sw, rule in actual.get(flow.cookie, [])
                if rule.cookie == active
            )
            want = flow.chain.expected_rule_count()
            if have < want:
                drifts.append(
                    Drift("rule-missing", flow.cookie, {"have": have, "want": want})
                )

        for host_name, nat in self._iter_nat_tables():
            leaked = sorted(
                c
                for c in nat.cookies()
                if c.startswith(_STORM_PREFIXES) and c not in in_flight
            )
            for cookie in leaked:
                drifts.append(
                    Drift(
                        "nat-orphan",
                        cookie,
                        {"host": host_name, "rules": len(nat.rules_for_cookie(cookie))},
                    )
                )

        used = {mb.name for f in flows for mb in (*f.middleboxes, *f.desired)}
        for name, mb in self.storm.middleboxes.items():
            if mb.crashed and mb.pool is None and name not in used:
                drifts.append(Drift("mb-orphan", name, {}))

        return drifts

    # -- repair -------------------------------------------------------------

    def repair(self) -> list[Drift]:
        """Fix every drift ``audit`` reports, as one saga with a step
        per drift; returns what was repaired."""
        return self._repair(self._live_flows())

    def _repair(self, flows) -> list[Drift]:
        drifts = self._audit(flows)
        if not drifts:
            return drifts
        steps = [
            # every fix is an idempotent write: recovery re-drives or
            # drops it, and the next audit finds whatever is left
            SagaStep(
                f"{drift.kind}-{index}",
                do=partial(self._fix, drift, flows),
                locked=False,
                forward_only=True,
            )
            for index, drift in enumerate(drifts)
        ]
        engine = self.storm.engine
        engine.run_now(engine.begin("repair", "storm-reconcile", steps))
        return drifts

    def _fix(self, drift: Drift, flows) -> None:
        sdn = self.storm.cloud.sdn
        if drift.kind == "rule-orphan":
            sdn.remove_by_cookie(drift.target, family=True)
        elif drift.kind == "rule-stale-gen":
            for cookie in drift.detail["cookies"]:
                sdn.remove_by_cookie(cookie, family=False)
        elif drift.kind == "rule-missing":
            flow = next(f for f in flows if f.cookie == drift.target)
            flow.chain.install(flow.chain.src_port)
        elif drift.kind == "nat-orphan":
            for _host, nat in self._iter_nat_tables():
                nat.remove_by_cookie(drift.target)
        elif drift.kind == "mb-orphan":
            mb = self.storm.middleboxes.get(drift.target)
            if mb is not None:
                self.storm._deprovision_middlebox_impl(mb)
        self.repairs.append(drift)
        obs = self.storm.obs
        if obs is not None:
            obs.metrics.counter("reconcile.repairs").inc()
            obs.event(f"reconcile.{drift.kind}", target=drift.target, **drift.detail)

    # -- the loop -----------------------------------------------------------

    def run(self, interval: float = 0.25, duration: Optional[float] = None):
        """Process: one :meth:`tick` every ``interval`` until stopped."""
        sim = self.storm.sim
        deadline = None if duration is None else sim.now + duration
        while not self.stopped and (deadline is None or sim.now < deadline):
            yield sim.timeout(interval)
            self.tick()

    def stop(self) -> None:
        self.stopped = True


def list_invariants() -> str:
    width = max(len(key) for key, _ in INVARIANTS)
    return "\n".join(f"{key:<{width}}  {text}" for key, text in INVARIANTS)


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.core.reconcile",
        description="StorM control-plane reconciler (audit invariants)",
    )
    parser.add_argument(
        "--list-invariants",
        action="store_true",
        help="print the invariants the reconciler audits and exit",
    )
    args = parser.parse_args(argv)
    if args.list_invariants:
        print(list_invariants())
        return 0
    parser.print_help()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
