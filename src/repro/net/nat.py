"""NAT rule chains with connection tracking.

StorM's splicing installs SNAT/DNAT rules like the ones in Fig. 3
(e.g. on the tenant VM's host: match ``dst target_host_ip:3260`` →
``SNAT src -> ovs1_ip:vm1_port; DNAT dst -> ovs2_ip:3260``).  The
*conntrack* table makes translations sticky per connection: once a
flow is established its translation survives rule removal — the
property the paper's atomic volume-attach protocol depends on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.net.packet import FiveTuple, Packet


@dataclass
class NatRule:
    """Match (wildcards = None) plus SNAT/DNAT rewrites.

    ``hook`` restricts where the rule applies: ``"prerouting"`` (received
    packets, like iptables REDIRECT), ``"output"`` (locally generated),
    or ``"any"``.
    """

    match_src_ip: Optional[str] = None
    match_src_port: Optional[int] = None
    match_dst_ip: Optional[str] = None
    match_dst_port: Optional[int] = None
    snat_ip: Optional[str] = None
    snat_port: Optional[int] = None
    dnat_ip: Optional[str] = None
    dnat_port: Optional[int] = None
    cookie: Optional[str] = None
    hook: str = "any"

    def matches(self, packet: Packet) -> bool:
        checks = (
            (self.match_src_ip, packet.src_ip),
            (self.match_src_port, packet.src_port),
            (self.match_dst_ip, packet.dst_ip),
            (self.match_dst_port, packet.dst_port),
        )
        return all(want is None or want == got for want, got in checks)


@dataclass
class _Translation:
    """Forward rewrite plus the reply-direction inverse."""

    src_ip: str
    src_port: int
    dst_ip: str
    dst_port: int


class ConnTrack:
    """Per-connection translation state (both directions), keyed by
    five-tuple; :meth:`NatTable.translate` probes the two maps with a
    plain ``(protocol, src_ip, src_port, dst_ip, dst_port)`` tuple, which
    hashes and compares equal to the :class:`FiveTuple` recorded."""

    def __init__(self):
        self._forward: dict[FiveTuple, _Translation] = {}
        self._reply: dict[FiveTuple, _Translation] = {}

    def record(self, original: FiveTuple, translated: FiveTuple) -> None:
        self._forward[original] = _Translation(
            translated.src_ip, translated.src_port, translated.dst_ip, translated.dst_port
        )
        # Reply packets arrive addressed to the translated identity and
        # must be rewritten back to the original endpoints.
        self._reply[translated.reversed()] = _Translation(
            original.dst_ip, original.dst_port, original.src_ip, original.src_port
        )

    def forget(self, original: FiveTuple) -> None:
        translation = self._forward.pop(original, None)
        if translation is not None:
            translated = FiveTuple(
                original.protocol,
                translation.src_ip,
                translation.src_port,
                translation.dst_ip,
                translation.dst_port,
            )
            self._reply.pop(translated.reversed(), None)

    def __len__(self) -> int:
        return len(self._forward)


#: Capacity of the negative-decision cache.  A pure cache — entries
#: are recomputed on miss — so capping it is semantically neutral; it
#: turns a table that grew one entry per flow *ever* seen into O(cap)
#: regardless of attach churn (the fleet-scale requirement).
NO_MATCH_CAP = 4096


class NatTable:
    """An iptables-like NAT chain applied by a node's IP stack.

    The per-flow match decision is precomputed: a positive decision
    lives in conntrack (as before), and a *negative* one — this flow
    matches no rule at this hook — is cached so established flows stop
    paying the rule scan on every packet.  Installing a rule flushes
    the negative cache (new rules can only add matches; removals can't
    turn a non-match into a match, and translated flows stay pinned by
    conntrack anyway).  The negative cache is bounded at
    :data:`NO_MATCH_CAP` entries, evicting oldest-first.
    """

    def __init__(self):
        self.rules: list[NatRule] = []
        self.conntrack = ConnTrack()
        # insertion-ordered for deterministic oldest-first eviction
        self._no_match: dict[tuple, None] = {}
        self._obs = None
        #: ``nat.conntrack_hit`` of the wired bus, bound by the first hit
        self._hit_counter = None
        #: the owning node's name, for metric attribution
        self.scope = ""
        #: change notification registered by the express path when a
        #: compiled flow depends on this chain (see repro.net.express);
        #: any NAT table change must demote those flows to packet mode.
        self._x_on_change: Optional[Callable[[], None]] = None

    @property
    def obs(self):
        """Observability bus hook; None = uninstrumented (no overhead).
        Wiring a bus drops the counter handle bound to the previous one."""
        return self._obs

    @obs.setter
    def obs(self, bus) -> None:
        self._obs = bus
        self._hit_counter = None

    def install(self, rule: NatRule) -> None:
        self.rules.append(rule)
        self._no_match.clear()
        if self._x_on_change is not None:
            self._x_on_change()

    def remove_by_cookie(self, cookie: str) -> int:
        before = len(self.rules)
        self.rules = [r for r in self.rules if r.cookie != cookie]
        removed = before - len(self.rules)
        if removed and self._x_on_change is not None:
            self._x_on_change()
        return removed

    def rules_for_cookie(self, cookie: str) -> list[NatRule]:
        """Rules tagged exactly ``cookie`` (reconciler audits)."""
        return [r for r in self.rules if r.cookie == cookie]

    def cookies(self) -> set[str]:
        """Every distinct cookie currently installed — attach-time NAT
        rules are transient, so outside an in-flight attach saga this
        set should contain no ``storm`` cookies at all."""
        return {r.cookie for r in self.rules if r.cookie is not None}

    def translate(self, packet: Packet, hook: str = "any") -> bool:
        """Rewrite ``packet`` in place.  Returns True if translated.

        Established connections use their conntrack entry even after the
        originating rule is removed; new connections consult the rules.
        """
        conntrack = self.conntrack
        forward = conntrack._forward
        reply = conntrack._reply
        if not self.rules and not forward and not reply:
            return False  # nothing ever installed on this node
        key = (packet.protocol, packet.src_ip, packet.src_port, packet.dst_ip, packet.dst_port)
        translation = forward.get(key)
        if translation is None:
            translation = reply.get(key)
        obs = self._obs
        if translation is not None:
            if obs is not None:
                counter = self._hit_counter
                if counter is None:
                    counter = self._hit_counter = obs.metrics.counter(
                        "nat.conntrack_hit", self.scope
                    )
                counter.inc()
                if packet.plan is not None:
                    packet.plan.counters.append((counter, False))
        else:
            flow_key = (hook, key)
            if flow_key in self._no_match:
                return False
            for rule in self.rules:
                if rule.hook not in ("any", hook) and hook != "any":
                    continue
                if rule.matches(packet):
                    break
            else:
                no_match = self._no_match
                no_match[flow_key] = None
                if len(no_match) > NO_MATCH_CAP:
                    del no_match[next(iter(no_match))]  # oldest first
                return False
            translation = _Translation(
                rule.snat_ip if rule.snat_ip is not None else packet.src_ip,
                rule.snat_port if rule.snat_port is not None else packet.src_port,
                rule.dnat_ip if rule.dnat_ip is not None else packet.dst_ip,
                rule.dnat_port if rule.dnat_port is not None else packet.dst_port,
            )
            translated = FiveTuple(
                key[0], translation.src_ip, translation.src_port,
                translation.dst_ip, translation.dst_port,
            )
            conntrack.record(FiveTuple(*key), translated)
            if packet.plan is not None:
                # an express learner: the next packet of this flow takes
                # the conntrack branch instead, so this one is no sample
                packet.plan.refuse()
            if obs is not None:
                obs.metrics.counter("nat.rule_match", self.scope).inc()
        packet.src_ip = translation.src_ip
        packet.src_port = translation.src_port
        packet.dst_ip = translation.dst_ip
        packet.dst_port = translation.dst_port
        return True
