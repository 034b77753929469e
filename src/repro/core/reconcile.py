"""Control-plane state reconciliation.

The saga machinery (:mod:`repro.core.saga`) keeps *individual*
operations atomic; the :class:`Reconciler` closes the remaining gap —
drift that no single operation owns: rules left behind when the whole
intent log is lost, a switch that lost rules the control plane
believes installed, stale shadowed generations from an
interrupted make-before-break swap, middle-box VMs whose flows are
long gone.

It compares three sources of truth:

- **desired state**: the platform's committed flows (``storm.flows``)
  and their steering chains;
- **actual state**: the rules physically present in the switch tables
  (:meth:`~repro.net.sdn.SdnController.iter_rules`) and the NAT tables
  on compute hosts and gateways;
- **in-flight state**: the intent log's live sagas, whose transient
  artifacts (wildcard rules, attach NAT) are expected, not drift.

``audit()`` is read-only and returns :class:`Drift` records;
``repair()`` fixes what it found and emits one ``reconcile.*`` bus
event per repair; ``run()`` is the periodic loop.  ``python -m
repro.core.reconcile --list-invariants`` prints the audited
invariants (used by CI as a smoke check).
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass, field
from typing import Optional

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
        "every provisioned middle-box is healthy or referenced by a flow; "
        "crashed flowless boxes are reclaimable",
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
    """Audits and repairs SDN/NAT/middle-box state against the
    platform's committed flows."""

    def __init__(self, storm, gc_crashed_middleboxes: bool = False):
        self.storm = storm
        #: deprovision crashed flowless middle-boxes during repair
        #: (off by default: the autoscaler may still be healing them)
        self.gc_crashed_middleboxes = gc_crashed_middleboxes
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

    # -- audit --------------------------------------------------------------

    def audit(self) -> list[Drift]:
        """Read-only sweep; returns every invariant violation found."""
        obs = self.storm.obs
        if obs is not None:
            obs.metrics.counter("reconcile.audits").inc()
        drifts: list[Drift] = []
        flows_by_cookie = {f.cookie: f for f in self._live_flows()}
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

        for flow in flows_by_cookie.values():
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

        chained = {
            mb.name for f in self._live_flows() for mb in f.middleboxes
        }
        for name, mb in self.storm.middleboxes.items():
            if getattr(mb, "crashed", False) and name not in chained:
                drifts.append(Drift("mb-orphan", name, {}))

        return drifts

    # -- repair -------------------------------------------------------------

    def repair(self) -> list[Drift]:
        """Fix every drift ``audit`` reports; returns what was repaired."""
        drifts = self.audit()
        sdn = self.storm.cloud.sdn
        obs = self.storm.obs
        for drift in drifts:
            if drift.kind == "rule-orphan":
                sdn.remove_by_cookie(drift.target, family=True)
            elif drift.kind == "rule-stale-gen":
                for cookie in drift.detail["cookies"]:
                    sdn.remove_by_cookie(cookie, family=False)
            elif drift.kind == "rule-missing":
                flow = next(
                    f for f in self._live_flows() if f.cookie == drift.target
                )
                flow.chain.install(flow.chain.src_port)
            elif drift.kind == "nat-orphan":
                for _host, nat in self._iter_nat_tables():
                    nat.remove_by_cookie(drift.target)
            elif drift.kind == "mb-orphan":
                if not self.gc_crashed_middleboxes:
                    continue
                mb = self.storm.middleboxes.get(drift.target)
                if mb is not None:
                    self.storm.deprovision_middlebox(mb)
            self.repairs.append(drift)
            if obs is not None:
                obs.metrics.counter("reconcile.repairs").inc()
                obs.event(f"reconcile.{drift.kind}", target=drift.target, **drift.detail)
        return drifts

    # -- the loop -----------------------------------------------------------

    def run(self, interval: float = 0.5, duration: Optional[float] = None):
        """Process: periodic audit-and-repair sweep."""
        sim = self.storm.sim
        deadline = None if duration is None else sim.now + duration
        while not self.stopped and (deadline is None or sim.now < deadline):
            yield sim.timeout(interval)
            self.repair()
        return self.repairs

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
