"""OVS-like virtual switches with SDN flow tables.

A switch forwards frames by consulting its :class:`FlowTable` first
(priority-ordered match → actions, exactly the shape of the rules in
the paper's Fig. 3, including ``mod_dst_mac``).  On a table miss it
falls back to self-learning L2 forwarding with flooding, which is how
the instance network behaves before StorM installs steering rules.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.sim import Simulator
from repro.net.link import Interface
from repro.net.packet import Packet

#: Wildcard marker in match specifications.
ANY = None

MATCH_FIELDS = (
    "in_port",
    "src_mac",
    "dst_mac",
    "src_ip",
    "dst_ip",
    "src_port",
    "dst_port",
    "protocol",
)


class Action:
    """Base class for flow-rule actions."""


@dataclass
class Output(Action):
    """Send the frame out of a named switch port."""

    port: str


@dataclass
class ModDstMac(Action):
    """Rewrite the destination MAC (the steering primitive of Fig. 3)."""

    new_mac: str


@dataclass
class Drop(Action):
    """Discard the frame."""


@dataclass
class ToController(Action):
    """Punt the frame to the SDN controller (packet-in)."""


@dataclass
class Normal(Action):
    """Fall through to standard L2 learning/forwarding (OVS ``NORMAL``)."""


@dataclass
class FlowRule:
    """Priority match → action list.  ``None`` fields are wildcards."""

    priority: int = 0
    in_port: Optional[str] = ANY
    src_mac: Optional[str] = ANY
    dst_mac: Optional[str] = ANY
    src_ip: Optional[str] = ANY
    dst_ip: Optional[str] = ANY
    src_port: Optional[int] = ANY
    dst_port: Optional[int] = ANY
    protocol: Optional[str] = ANY
    actions: list[Action] = field(default_factory=list)
    cookie: Optional[str] = None
    hits: int = 0

    def matches(self, packet: Packet, in_port: str) -> bool:
        if self.in_port is not ANY and self.in_port != in_port:
            return False
        for field_name in ("src_mac", "dst_mac", "src_ip", "dst_ip", "src_port", "dst_port", "protocol"):
            want = getattr(self, field_name)
            if want is not ANY and want != getattr(packet, field_name):
                return False
        return True


def cookie_in_family(rule_cookie: Optional[str], cookie: str, family: bool = True) -> bool:
    """True if ``rule_cookie`` is ``cookie`` or (with ``family``) a
    derived cookie ``cookie#…`` (steering generations, quiesce rules)."""
    if rule_cookie is None:
        return False
    if rule_cookie == cookie:
        return True
    return family and rule_cookie.startswith(cookie + "#")


#: Cache-miss marker (a rule can legitimately resolve to ``None``).
_MISS = object()

#: Capacity of the per-flow decision cache.  A pure memo — flushed on
#: every rule change and recomputed on miss — so the cap only bounds
#: steady-state memory: without it the cache grew one entry per flow
#: *ever* switched, O(ever-attached) under fleet churn.
DECISION_CACHE_CAP = 8192


def cookie_root(cookie: Optional[str]) -> Optional[str]:
    """The family root of a cookie: everything before the first ``#``.
    Family membership (:func:`cookie_in_family`) never crosses roots,
    which is what lets rule stores bucket by root and remove a chain's
    rules in O(chain) instead of O(table)."""
    if cookie is None:
        return None
    return cookie.split("#", 1)[0]


class FlowTable:
    """Priority-ordered rule set with cookie-based removal.

    Rules live in an insertion-ordered id map plus a per-cookie-family
    bucket index, so ``remove_by_cookie`` touches only the family's own
    rules — O(chain), not O(table), which is what keeps control-plane
    churn affordable when thousands of chains share one switch.  The
    priority-sorted view (:attr:`rules`) is materialized lazily and
    cached between rule changes.

    Lookups are memoized per *flow*: every header field a rule can
    match on goes into the cache key, so packets of an established
    flow skip the linear rule scan.  The cache is flushed whenever the
    rule set changes and bounded at :data:`DECISION_CACHE_CAP` entries
    (oldest-first eviction, deterministic via dict insertion order).
    """

    def __init__(self):
        self._next_id = 0
        #: id -> rule, insertion-ordered (the stable-sort tiebreak)
        self._live: dict[int, FlowRule] = {}
        #: cookie family root -> ids of its rules, insertion-ordered
        self._by_root: dict[Optional[str], list[int]] = {}
        self._sorted: Optional[list[FlowRule]] = None
        self._decision_cache: dict[tuple, Optional[FlowRule]] = {}
        #: change notification registered by the express path when a
        #: compiled flow depends on this table (see repro.net.express);
        #: any rule change must demote those flows back to packet mode.
        self._x_on_change: Optional[Callable[[], None]] = None

    @property
    def rules(self) -> list[FlowRule]:
        """Priority-descending view; equal priorities keep install
        order (same order the old eager stable sort produced)."""
        if self._sorted is None:
            self._sorted = sorted(self._live.values(), key=lambda r: -r.priority)
        return self._sorted

    def _changed(self) -> None:
        self._sorted = None
        self._decision_cache.clear()
        if self._x_on_change is not None:
            self._x_on_change()

    def install(self, rule: FlowRule) -> None:
        rule_id = self._next_id
        self._next_id = rule_id + 1
        self._live[rule_id] = rule
        self._by_root.setdefault(cookie_root(rule.cookie), []).append(rule_id)
        self._changed()

    def remove_by_cookie(self, cookie: str, family: bool = False) -> int:
        root = cookie_root(cookie)
        ids = self._by_root.get(root)
        if not ids:
            return 0
        keep: list[int] = []
        removed = 0
        live = self._live
        for rule_id in ids:
            if cookie_in_family(live[rule_id].cookie, cookie, family):
                del live[rule_id]
                removed += 1
            else:
                keep.append(rule_id)
        if removed:
            if keep:
                self._by_root[root] = keep
            else:
                del self._by_root[root]
            self._changed()
        return removed

    def decide(self, key: tuple, packet: Packet, in_port: str) -> Optional[FlowRule]:
        """The rule for a flow whose ``key`` missed the decision cache
        (every header a rule can match, as :meth:`Switch._apply_pipeline`
        builds it): scan in priority order and memoize the answer."""
        rule = None
        for candidate in self.rules:
            if candidate.matches(packet, in_port):
                rule = candidate
                break
        cache = self._decision_cache
        cache[key] = rule
        if len(cache) > DECISION_CACHE_CAP:
            del cache[next(iter(cache))]  # oldest first
        return rule

    def __len__(self) -> int:
        return len(self._live)


class Switch:
    """A virtual switch: named ports, a flow table, and L2 learning."""

    def __init__(self, sim: Simulator, name: str, forwarding_delay: float = 5e-6):
        self.sim = sim
        self.name = name
        self.forwarding_delay = forwarding_delay
        self.ports: dict[str, Interface] = {}
        self.flow_table = FlowTable()
        self._mac_table: dict[str, str] = {}  # mac -> port name
        self._port_names: dict[Interface, str] = {}  # reverse of ports
        self.controller: Optional[Callable[["Switch", Packet, str], None]] = None
        self.packets_switched = 0
        self._obs = None
        #: ``switch.l2`` / ``switch.flow_hit`` of the wired bus, each
        #: bound by the first decision that counts it
        self._l2_counter = None
        self._hit_counter = None

    @property
    def obs(self):
        """Observability bus hook; None keeps the pipeline branch-free
        beyond one identity check per forwarding decision.  Wiring a
        bus drops the counter handles bound to the previous one."""
        return self._obs

    @obs.setter
    def obs(self, bus) -> None:
        self._obs = bus
        self._l2_counter = self._hit_counter = None

    # -- wiring ------------------------------------------------------

    def add_port(self, name: str, mac: str = "") -> Interface:
        if name in self.ports:
            raise ValueError(f"duplicate port {name!r} on switch {self.name!r}")
        iface = Interface(f"{self.name}.{name}", mac or f"sw:{self.name}:{name}")
        iface.owner = self
        self.ports[name] = iface
        self._port_names[iface] = name
        return iface

    def remove_port(self, name: str) -> Optional[Interface]:
        """Detach a port (service-VM deprovisioning); returns its
        interface, or None if no such port exists.  Forgetting the MACs
        learnt behind it is a forwarding change: the table is edited in
        place (express plans hold it) and the flow table's change hook
        fires, which demotes every flow whose way crossed this switch."""
        iface = self.ports.pop(name, None)
        if iface is None:
            return None
        self._port_names.pop(iface, None)
        mac_table = self._mac_table
        for mac in [mac for mac, port in mac_table.items() if port == name]:
            del mac_table[mac]
        self.flow_table._changed()
        return iface

    # -- data plane ----------------------------------------------------

    def receive(self, packet: Packet, iface: Interface) -> None:
        in_port = self._port_names.get(iface)
        if in_port is None:
            raise ValueError(f"interface {iface.name} is not a port of {self.name}")
        self._mac_table[packet.src_mac] = in_port
        self.packets_switched += 1
        name = self.name
        packet.trace.append(name)
        ctx = packet.ctx
        if ctx is not None:
            ctx.hop(name, packet)
        # The pipeline is a pure delay, not a FIFO: one scheduled
        # occurrence per packet (zero delay keeps its one-tick deferral).
        sim = self.sim
        sim.call_at(sim.now + self.forwarding_delay, self._apply_pipeline, packet, in_port)

    def _apply_pipeline(self, packet: Packet, in_port: str) -> None:
        """Flow table, then the actions of the matching rule, then L2
        forwarding: out of one port, flooded, or dropped."""
        table = self.flow_table
        key = (
            in_port,
            packet.src_mac,
            packet.dst_mac,
            packet.src_ip,
            packet.dst_ip,
            packet.src_port,
            packet.dst_port,
            packet.protocol,
        )
        rule = table._decision_cache.get(key, _MISS)
        if rule is _MISS:
            rule = table.decide(key, packet, in_port)
        obs = self._obs
        plan = packet.plan
        if plan is not None:
            self._report(plan, packet, in_port, rule)
        if rule is None:
            if obs is not None:
                counter = self._l2_counter
                if counter is None:
                    counter = self._l2_counter = obs.metrics.counter("switch.l2", self.name)
                counter.inc()
        else:
            rule.hits += 1
            if obs is not None:
                counter = self._hit_counter
                if counter is None:
                    counter = self._hit_counter = obs.metrics.counter(
                        "switch.flow_hit", self.name
                    )
                counter.inc()
                if packet.ctx is not None:
                    packet.ctx.event(
                        "switch.steer", target=self.name, cookie=rule.cookie
                    )
            for action in rule.actions:
                if isinstance(action, ModDstMac):
                    packet.dst_mac = action.new_mac
                elif isinstance(action, Output):
                    port = self.ports.get(action.port)
                    if port is not None:
                        port.send(packet)
                    return
                elif isinstance(action, Drop):
                    if obs is not None:
                        obs.metrics.counter("switch.drop", self.name).inc()
                    return
                elif isinstance(action, ToController):
                    if plan is not None:
                        plan.refuse()  # whatever the controller does with it
                    if self.controller is not None:
                        self.controller(self, packet, in_port)
                    return
                elif isinstance(action, Normal):
                    break
            # else a rewrite-only rule (the Fig. 3 style): L2 forwarding
            # toward the (possibly rewritten) destination MAC
        known = self._mac_table.get(packet.dst_mac)
        if known is None:
            self._flood(packet, in_port)
        elif known != in_port:
            port = self.ports.get(known)
            if port is not None:
                port.send(packet)
        # else the destination is behind the ingress port: drop

    def _report(self, plan, packet: Packet, in_port: str, rule: Optional[FlowRule]) -> None:
        """Tell an express learner (:mod:`repro.net.express`) what this
        switch did with the packet carrying it: the per-packet side
        effects of :meth:`receive` and of the pipeline so far."""
        plan.watch(self.flow_table)
        plan.switches.append(self)
        plan.mac_learns.append((self._mac_table, packet.src_mac, in_port))
        if self.forwarding_delay:
            plan.pre.append(self.forwarding_delay)
        obs = self.obs
        if rule is not None:
            plan.rules.append(rule)
            if obs is not None:
                plan.counters.append((obs.metrics.counter("switch.flow_hit", self.name), False))
                plan.steers.append((self.name, rule.cookie))
        elif obs is not None:
            plan.counters.append((obs.metrics.counter("switch.l2", self.name), False))

    def _flood(self, packet: Packet, in_port: str) -> None:
        if packet.plan is not None:
            packet.plan.refuse()  # the next packet may find the MAC learnt
        for port_name, port in self.ports.items():
            if port_name != in_port:
                port.send(packet.copy())
