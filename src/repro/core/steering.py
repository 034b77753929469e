"""SDN flow steering (paper §III-A, Fig. 3).

Chains are composed from forwarding units {previous hop, middle-box,
next hop}: at each emitting hop's virtual switch, a rule matching the
flow's (src MAC, dst MAC, ports) rewrites the destination MAC to the
next middle-box, then falls through to L2 forwarding.  The same rule
set serves all relay modes: in active-relay mode, the reverse-path
rules simply never match (each split connection's replies are
addressed to their own previous hop directly).

During an atomic attach the source port is not yet known, so the
rules are first installed with the port wildcarded (safe under the
attach mutex) and *narrowed* to the attributed 4-tuple afterwards.

Rule swaps (narrowing, chain reconfiguration) are **make-before-break**
via *generations*: the replacement rule set is installed first, under a
generation-suffixed cookie (``<cookie>#g<n>``) and at a generation-
bumped priority so it shadows its predecessor, and only then is the old
generation retired.  At every step boundary of a control operation's
saga the flow therefore has a complete rule set installed — a
controller crash between ``stage`` and ``retire`` leaves two shadowed
generations (repaired by recovery or the reconciler), never a window
where traffic bypasses the chain or blackholes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.core.middlebox import MiddleBox
from repro.core.splicing import GatewayPair
from repro.iscsi.pdu import ISCSI_PORT
from repro.net.sdn import SdnController
from repro.net.switch import Drop, FlowRule, ModDstMac

WILDCARD_PRIORITY = 10
NARROWED_PRIORITY = 20
#: fail-closed quiesce rules sit above every steering generation
QUIESCE_PRIORITY = 10_000

_KEEP = object()


def _ovs_name(host_name: str) -> str:
    return f"ovs-{host_name}"


def build_chain_rules(
    gateways: GatewayPair,
    middleboxes: list[MiddleBox],
    cookie: str,
    src_port: Optional[int] = None,
    service_port: int = ISCSI_PORT,
    generation: int = 0,
) -> list[tuple[str, FlowRule]]:
    """Fig. 3 rule set for one flow through ``middleboxes`` in order."""
    if not middleboxes:
        return []
    base = NARROWED_PRIORITY if src_port is not None else WILDCARD_PRIORITY
    priority = base + generation
    ingress_mac = gateways.ingress.instance_mac
    egress_mac = gateways.egress.instance_mac
    rules: list[tuple[str, FlowRule]] = []

    # forward path: ingress -> mb1 -> ... -> mbN -> egress
    prev_mac = ingress_mac
    prev_switch = _ovs_name(gateways.ingress.host_name)
    for mb in middleboxes:
        rules.append(
            (
                prev_switch,
                FlowRule(
                    priority=priority,
                    src_mac=prev_mac,
                    dst_mac=egress_mac,
                    src_port=src_port,
                    dst_port=service_port,
                    actions=[ModDstMac(mb.mac)],
                    cookie=cookie,
                ),
            )
        )
        prev_mac = mb.mac
        prev_switch = _ovs_name(mb.host_name)

    # reverse path: egress -> mbN -> ... -> mb1 -> ingress
    prev_mac = egress_mac
    prev_switch = _ovs_name(gateways.egress.host_name)
    for mb in reversed(middleboxes):
        rules.append(
            (
                prev_switch,
                FlowRule(
                    priority=priority,
                    src_mac=prev_mac,
                    dst_mac=ingress_mac,
                    src_port=service_port,
                    dst_port=src_port,
                    actions=[ModDstMac(mb.mac)],
                    cookie=cookie,
                ),
            )
        )
        prev_mac = mb.mac
        prev_switch = _ovs_name(mb.host_name)

    return rules


@dataclass
class SteeringChain:
    """Installed steering state for one flow, with narrow/teardown.

    ``cookie`` names the whole *family* of rules for the flow:
    generation ``0`` uses the bare cookie, later generations append
    ``#g<n>``, and fail-closed quiesce rules append ``#quiesce`` —
    :meth:`remove` tears the entire family down in one call.
    """

    sdn: SdnController
    gateways: GatewayPair
    middleboxes: list[MiddleBox]
    cookie: str
    src_port: Optional[int] = None
    service_port: int = ISCSI_PORT
    installed: bool = field(default=False)
    generation: int = field(default=0)
    quiesced: bool = field(default=False)

    def _gen_cookie(self, generation: int) -> str:
        return self.cookie if generation == 0 else f"{self.cookie}#g{generation}"

    @property
    def active_cookie(self) -> str:
        """Cookie of the currently authoritative rule generation."""
        return self._gen_cookie(self.generation)

    def expected_rule_count(self) -> int:
        """Rules the active generation must have installed (audited by
        the reconciler): one per direction per middle-box."""
        return 2 * len(self.middleboxes)

    def install(self, src_port: Optional[int] = None) -> int:
        """Install the active generation (wildcard if ``src_port`` is
        None).  Idempotent: a crash-replayed install first removes any
        partial rule set of the same generation."""
        self.src_port = src_port
        self.sdn.remove_by_cookie(self.active_cookie, family=False)
        rules = build_chain_rules(
            self.gateways,
            self.middleboxes,
            self.active_cookie,
            src_port,
            self.service_port,
            generation=self.generation,
        )
        for switch_name, rule in rules:
            self.sdn.install_rule(switch_name, rule)
        self.installed = True
        return len(rules)

    # -- make-before-break swaps -------------------------------------------

    def stage(
        self,
        middleboxes: Optional[list[MiddleBox]] = None,
        src_port=_KEEP,
    ) -> int:
        """Install the *next* rule generation alongside the current one
        and return the retired generation number (pass it to
        :meth:`retire` once the new rules are live).  The new
        generation's bumped priority shadows the old rules immediately,
        so there is no instant at which the flow has no chain."""
        retired = self.generation
        self.generation += 1
        if middleboxes is not None:
            self.middleboxes = list(middleboxes)
        self.install(self.src_port if src_port is _KEEP else src_port)
        return retired

    def unstage(self, retired: int, middleboxes: list[MiddleBox]) -> None:
        """Compensation for :meth:`stage`: drop the staged generation
        and make ``retired`` (with its middle-box list) current again."""
        self.sdn.remove_by_cookie(self.active_cookie, family=False)
        self.generation = retired
        self.middleboxes = list(middleboxes)

    def retire(self, generation: int) -> int:
        """Remove one retired rule generation (idempotent)."""
        return self.sdn.remove_by_cookie(self._gen_cookie(generation), family=False)

    def narrow(self, src_port: int) -> None:
        """Replace wildcard rules with 4-tuple rules, make-before-break."""
        self.retire(self.stage(src_port=src_port))

    def reconfigure(self, middleboxes: list[MiddleBox]) -> None:
        """Swap the middle-box chain of an existing flow (paper §III-A,
        on-demand scaling).  Only valid for forwarding-mode chains —
        active relays hold per-flow TCP state that cannot be migrated."""
        self.retire(self.stage(middleboxes=middleboxes))

    # -- fail-closed quiesce ----------------------------------------------

    def quiesce(self) -> None:
        """Block the flow in both directions (control-loop fail-closed
        policy): high-priority drop rules at the ingress gateway's
        switch, which both the upstream and the reply path traverse."""
        if self.quiesced:
            return
        switch = _ovs_name(self.gateways.ingress.host_name)
        cookie = f"{self.cookie}#quiesce"
        for src_port, dst_port in (
            (self.src_port, self.service_port),
            (self.service_port, self.src_port),
        ):
            self.sdn.install_rule(
                switch,
                FlowRule(
                    priority=QUIESCE_PRIORITY,
                    src_port=src_port,
                    dst_port=dst_port,
                    actions=[Drop()],
                    cookie=cookie,
                ),
            )
        self.quiesced = True

    def unquiesce(self) -> int:
        """Lift a quiesce; established TCP retransmits resume the flow."""
        removed = self.sdn.remove_by_cookie(f"{self.cookie}#quiesce", family=False)
        self.quiesced = False
        return removed

    def remove(self) -> int:
        """Tear down the whole cookie family: every generation plus any
        quiesce rules.  Idempotent."""
        removed = self.sdn.remove_by_cookie(self.cookie, family=True)
        self.installed = False
        self.quiesced = False
        return removed
