"""The chain control loop: keep every committed chain in force.

One periodic :class:`Reconciler` holds each live flow to one desired
state — the chain its attach committed (:attr:`StorMFlow.desired
<repro.core.platform.StorMFlow.desired>`) — and closes the drift no
single saga owns.  Each :meth:`Reconciler.tick` builds the live-flow
set once, applies the tenant's failure policy to every flow, then
audits and repairs.

**Failure policy.**  A chain member that crashed (or lost its NIC)
leaves the tenant with a choice the platform makes per tenant:

- **fail-open** — availability first: *heal the chain at full
  strength* by borrowing replacement capacity from a
  :class:`~repro.core.scaling.MiddleboxAutoscaler` pool
  (``capacity_pool=``): each dead member is substituted by a borrowed
  box and the flow re-steered onto the full-length chain.  Only when
  the pool is exhausted (or none is wired) does the loop fall back to
  a bypass: re-steer the flow onto the surviving members.  Either way
  the desired chain is *reinstated*, and every loan returned, when the
  dead boxes come back.  Only valid for forwarding-mode chains: an
  active relay holds per-flow TCP state that a bypass would corrupt.
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
  desired chains, and the loop's capacity pool;
- **actual state**: the rules in the switch tables
  (:meth:`~repro.net.sdn.SdnController.iter_rules`) and the NAT tables
  on compute hosts and gateways;
- **in-flight state**: the intent log's live sagas, whose transient
  artifacts (wildcard rules, attach NAT) are expected, not drift;

and returns :class:`Drift` records; ``repair()`` fixes them and emits
one ``reconcile.*`` bus event per repair.

**Writes.**  Every write the loop makes is a saga on ``storm.engine``
— quiesce and unquiesce are one-step sagas, a repair is one saga with
a step per drift, bypass / heal / reinstate are ``reconfigure_chain``
— so each is journaled, shipped under HA and checked against
``engine.authority``.  A tick that meets :class:`ControllerCrashed`
writes nothing more; the next tick works the state out again.

``python -m repro.core.reconcile --list-invariants`` prints the
audited invariants (used by CI as a smoke check).
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass, field
from functools import partial
from typing import Optional

from repro.core.middlebox import MiddleBox
from repro.core.relay import RelayMode
from repro.core.saga import ControllerCrashed, SagaStep
from repro.core.scaling import resteer_flow

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
        "or held or lent by the loop's capacity pool; otherwise it is "
        "deprovisioned",
    ),
]

_STORM_PREFIXES = ("storm:", "storm-obj:")


def _base_cookie(cookie: str) -> str:
    """Strip the generation/quiesce suffix: ``a#g2`` -> ``a``."""
    return cookie.split("#", 1)[0]


def _healthy(mb: MiddleBox) -> bool:
    return not mb.crashed and mb.instance_iface.link is not None


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
        capacity_pool=None,
    ):
        if default_policy not in (FAIL_OPEN, FAIL_CLOSED):
            raise ValueError(f"unknown failure policy {default_policy!r}")
        self.storm = storm
        self.default_policy = default_policy
        self.tenant_policies = dict(tenant_policies or {})
        #: :class:`~repro.core.scaling.MiddleboxAutoscaler` to borrow
        #: replacement capacity from on fail-open (None = bypass only)
        self.capacity_pool = capacity_pool
        #: flow cookie -> loans as (dead member name, borrowed box), in
        #: borrow order; a loan leaves only once the flow is off it
        self._loans: dict[str, list[tuple[str, MiddleBox]]] = {}
        #: flow cookies this loop steered off their desired chain
        self._steered: set[str] = set()
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
        """Apply the failure policy to every live flow, then audit and
        repair.  Stops writing at the first :class:`ControllerCrashed`."""
        obs = self.storm.obs
        if obs is not None:
            obs.metrics.counter("watchdog.probes").inc()
        flows = self._live_flows()
        try:
            self._forget_detached(flows)
            for flow in flows:
                if not self._apply_integrity(flow):
                    self._apply_policy(flow)
            self._repair(flows)
        except ControllerCrashed:
            pass  # the controller is down: the next tick starts over

    def _forget_detached(self, flows) -> None:
        """Drop the state of flows that left the rules and return their
        loans, so the loop stays O(active flows) under fleet churn."""
        live = {f.cookie for f in flows}
        self._steered &= live
        self._integrity_quiesced &= live
        for cookie in [c for c in self._loans if c not in live]:
            loans = self._loans[cookie]
            while loans:
                self.capacity_pool.restore(loans[0][1])
                del loans[0]
            del self._loans[cookie]

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
        dead = [mb for mb in flow.desired if not _healthy(mb)]
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

    def _borrow(self, flow, dead, loans) -> None:
        """Borrow a replacement for every dead member without a healthy
        loan, until the pool's capacity budget runs out."""
        covered = {name for name, box in loans if _healthy(box)}
        for mb in dead:
            if mb.name in covered:
                continue
            replacement = self.capacity_pool.borrow()
            if replacement is None:
                break  # capacity budget exhausted: bypass what's left
            loans.append((mb.name, replacement))
            self._record(
                "watchdog.borrow", flow, dead=mb.name, replacement=replacement.name
            )

    def _fail_open(self, flow, dead) -> None:
        if dead and self.capacity_pool is not None:
            self._borrow(flow, dead, self._loans.setdefault(flow.cookie, []))
        loans = self._loans.get(flow.cookie, [])
        dead_names = {mb.name for mb in dead}
        cover = {
            name: box for name, box in loans if name in dead_names and _healthy(box)
        }
        # full strength first: every desired member, a loan in place of
        # each dead one; the bypass is what the pool could not cover
        target = [
            mb if _healthy(mb) else cover[mb.name]
            for mb in flow.desired
            if _healthy(mb) or mb.name in cover
        ]
        if not target:
            # nothing to steer through: quiesce rather than steer traffic
            # at a dark MAC; the loans stay (they may still be in the rules)
            self._fail_closed(flow, dead)
            return
        if flow.chain.quiesced:  # recovery from a total outage
            self._set_quiesced(flow, False)
            self._record("watchdog.unquiesce", flow)
        if dead:
            if resteer_flow(self.storm, flow, target):
                healed = all(mb.name in cover for mb in dead)
                self._record(
                    "watchdog.heal" if healed else "watchdog.bypass",
                    flow,
                    dead=[mb.name for mb in dead],
                    chain=[mb.name for mb in target],
                )
            self._steered.add(flow.cookie)
        elif flow.cookie in self._steered:
            if resteer_flow(self.storm, flow, target):
                self._record("watchdog.reinstate", flow, chain=[mb.name for mb in target])
            self._steered.discard(flow.cookie)
        # the flow is off every loan outside the cover: hand them back
        for loan in [loan for loan in loans if cover.get(loan[0]) is not loan[1]]:
            self.capacity_pool.restore(loan[1])
            loans.remove(loan)
            self._record("watchdog.restore", flow, replacement=loan[1].name)
        if not loans:
            self._loans.pop(flow.cookie, None)

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
        pool = self.capacity_pool
        if pool is not None:
            used.update(mb.name for mb in (*pool.pool, *pool.lent))
        for name, mb in self.storm.middleboxes.items():
            if mb.crashed and name not in used:
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
