"""Flow-level express path: promotion/demotion lifecycle.

The equivalence guarantees (byte-identical application results under
express) are covered by ``tests/determinism/test_express_matrix.py``;
here we exercise the state machine itself: when flows promote, every
trigger that must demote them, and the observability events.
"""

import ast
from pathlib import Path
from types import SimpleNamespace

import pytest

import repro.net.express
from repro.faults import FaultInjector
from repro.net import (
    Drop,
    ExpressManager,
    FlowRule,
    NatRule,
    Output,
    SdnController,
    Switch,
    TcpListener,
    TcpSocket,
    ToController,
)
from repro.net.express import PROMOTE_AFTER
from repro.sim import Simulator

from tests.net.helpers import routed_pair, two_hosts_one_switch


class RecordingObs:
    """Minimal stand-in for the obs bus: records ``event()`` calls."""

    def __init__(self):
        self.events = []

    def event(self, kind, target="", **attrs):
        self.events.append((kind, target, attrs))


def build(express=True):
    sim = Simulator()
    manager = ExpressManager(sim) if express else None
    sim, _arp, switch, a, b = two_hosts_one_switch(sim)
    listener = TcpListener(sim, b.stack, "10.0.0.2", 3260)
    client = TcpSocket(sim, a.stack, "10.0.0.1", a.stack.allocate_port())
    return sim, manager, switch, a, b, listener, client


def transfer(sim, listener, client, n=8, collect=None):
    received = [] if collect is None else collect

    def server():
        sock = yield listener.accept()
        while True:
            got = yield sock.recv()
            if not isinstance(got, tuple):
                return
            received.append(got[0])

    def run_client():
        yield client.connect("10.0.0.2", 3260)
        for i in range(n):
            client.send({"n": i}, 20_000)

    sim.process(server())
    done = sim.process(run_client())
    sim.run(until=done)
    return received


def test_promotion_after_clean_acks():
    sim, manager, _switch, _a, _b, listener, client = build()
    received = transfer(sim, listener, client)
    sim.run()
    assert [m["n"] for m in received] == list(range(8))
    assert client._xpath is not None
    assert manager.promotions >= 1
    assert manager.active_flows >= 1
    assert manager.probes_failed == 0


def test_no_manager_means_no_promotion():
    sim, manager, _switch, _a, _b, listener, client = build(express=False)
    assert manager is None
    transfer(sim, listener, client)
    sim.run()
    assert client._xpath is None
    assert client._x_acks == 0  # on_ack hook never engaged


def test_express_results_identical_to_packet_mode():
    """Same topology, same workload: promoted express transfer must be
    indistinguishable at the application layer, including sim time."""
    outcomes = []
    for express in (False, True):
        sim, manager, _switch, _a, _b, listener, client = build(express)
        received = transfer(sim, listener, client, n=12)
        sim.run()
        outcomes.append(([m["n"] for m in received], sim.now))
        if express:
            assert manager.promotions >= 1
    assert outcomes[0] == outcomes[1]


def _promote(sim, manager, listener, client):
    """Drive traffic until the client socket is promoted."""
    received = transfer(sim, listener, client)
    sim.run()  # drain in-flight ACKs so the learning segment lands
    assert client._xpath is not None, "precondition: flow promoted"
    return received


def test_flow_rule_install_demotes():
    sim, manager, switch, _a, _b, listener, client = build()
    _promote(sim, manager, listener, client)
    switch.flow_table.install(FlowRule(priority=1, actions=[Output("host-b")]))
    assert client._xpath is None
    assert manager.demotions >= 1
    assert manager.active_flows == 0


def test_route_change_demotes():
    sim, manager, _switch, a, _b, listener, client = build()
    _promote(sim, manager, listener, client)
    a.stack.add_route("10.9.0.0/24", a.interfaces[0])
    assert client._xpath is None
    assert manager.demotions >= 1


def test_nat_install_demotes_even_on_previously_empty_table():
    """Every stack the learning packet crossed watches its NAT table,
    including tables that were empty when it did."""
    sim, manager, _switch, _a, b, listener, client = build()
    _promote(sim, manager, listener, client)
    b.stack.nat.install(NatRule(match_dst_port=3260, dnat_port=3261))
    assert client._xpath is None
    assert manager.demotions >= 1


def test_close_demotes():
    sim, manager, _switch, _a, _b, listener, client = build()
    _promote(sim, manager, listener, client)

    client.close()
    sim.run()
    assert client._xpath is None
    assert manager.active_flows == 0


def test_demoted_flow_keeps_working_and_repromotes():
    sim, manager, _switch, _a, _b, listener, client = build()
    received = []
    transfer(sim, listener, client, n=8, collect=received)
    sim.run()  # drain so the first promotion lands
    assert client._xpath is not None
    manager.demote_all("test")
    assert client._xpath is None

    def more():
        for i in range(30):
            client.send({"n": 100 + i}, 20_000)
        yield sim.timeout(1.0)

    sim.run(until=sim.process(more()))
    got = [m["n"] for m in received]
    assert got == list(range(8)) + [100 + i for i in range(30)]
    # enough clean ACKs accumulated again after the demotion
    assert manager.promotions >= 2
    assert client._xpath is not None


def test_obs_promote_and_demote_events():
    sim, manager, _switch, _a, _b, listener, client = build()
    obs = RecordingObs()
    manager.obs = obs
    client.express_label = "test-flow"
    _promote(sim, manager, listener, client)
    manager.demote(client, "unit-test")
    kinds = [kind for kind, _target, _attrs in obs.events]
    assert "flow.promote" in kinds
    assert "flow.demote" in kinds
    promote = next(e for e in obs.events if e[0] == "flow.promote")
    assert promote[1] == "test-flow"
    assert promote[2]["hops"] >= 1
    demote = next(e for e in obs.events if e[0] == "flow.demote")
    assert demote[2]["reason"] == "unit-test"


# -- the learner: every refusal, and its lifecycle ---------------------


def routed(express):
    """A client on host-a and a server on host-b of ``routed_pair``."""
    sim = Simulator()
    manager = ExpressManager(sim) if express else None
    sim, switch, a, router, b, last_link = routed_pair(sim)
    net = SimpleNamespace(
        sim=sim, manager=manager, switch=switch, a=a, router=router, b=b,
        last_link=last_link, received=[],
        listener=TcpListener(sim, b.stack, "10.0.1.2", 3260),
        client=TcpSocket(sim, a.stack, "10.0.0.1", a.stack.allocate_port()),
    )

    def server():
        sock = yield net.listener.accept()
        while True:
            got = yield sock.recv()
            if not isinstance(got, tuple):
                return
            net.received.append((got[0]["n"], sim.now))

    sim.process(server())
    return net


def armed(express):
    """Connect and exchange exactly PROMOTE_AFTER one-segment messages:
    the last ACK arms the socket and nothing is left to send, so the
    first segment sent afterwards is the learner."""
    net = routed(express)

    def open_and_send():
        yield net.client.connect("10.0.1.2", 3260)
        for n in range(PROMOTE_AFTER):
            net.client.send({"n": n}, 1000)

    net.sim.run(until=net.sim.process(open_and_send()))
    net.sim.run()
    if express:
        assert net.client._x_learn and net.manager.promotions == 0
    return net


def burst(sim, client, first, count):
    """``count`` five-segment messages, run to quiescence."""
    for n in range(first, first + count):
        client.send({"n": n}, 20_000)
    sim.run()


def this_flow(net):
    port = net.client.local_port
    return lambda packet: port in (packet.src_port, packet.dst_port)


def tap(net):
    net.b.stack.packet_taps.append(lambda packet, iface: None)


def forward_hook(net):
    def hook(packet):
        yield net.sim.timeout(2e-6)

    net.router.stack.forward_hook = hook


def flood(net):
    net.switch._mac_table.clear()


def to_controller(net):
    net.switch.controller = lambda switch, packet, in_port: switch.ports["router"].send(packet)
    net.switch.flow_table.install(
        FlowRule(priority=5, dst_ip="10.0.1.2", actions=[ToController()])
    )


def identity_nat(net):
    net.b.stack.nat.install(NatRule(match_dst_port=3260, dnat_ip="10.0.1.2", hook="prerouting"))


def delayed(net):
    return FaultInjector(net.sim, seed=3).lossy_link(
        net.last_link, delay_prob=0.5, match=this_flow(net)
    )


def delayed_elsewhere(net):
    return FaultInjector(net.sim, seed=3).lossy_link(
        net.last_link, delay_prob=0.5, match=lambda packet: packet.dst_port == 9
    )


def learner_dropped(net):
    FaultInjector(net.sim, seed=3).drop_next(net.last_link)


#: (what happens at the armed moment, (promotions, probes_failed) once
#: the learner has arrived, promoted at the end)
LEARNER_CASES = [
    (tap, (0, 1), False),
    (forward_hook, (0, 1), False),
    (flood, (0, 1), True),  # the retry finds the MAC learnt again
    (to_controller, (0, 1), False),
    (identity_nat, (0, 1), True),  # the retry goes through conntrack
    (delayed, (0, 1), False),
    (delayed_elsewhere, (1, 0), True),  # inert for this flow
    (learner_dropped, (0, 0), True),  # a lost learner is not a failed one
]


@pytest.mark.parametrize(
    "case,after_learner,promoted_at_end",
    LEARNER_CASES,
    ids=[case[0].__name__ for case in LEARNER_CASES],
)
def test_learner_outcome_per_element_decision(case, after_learner, promoted_at_end):
    """Whatever an element on the way did with the learning packet, the
    application sees packet mode: same deliveries at the same instants."""
    outcomes = {}
    for express in (False, True):
        net = armed(express)
        faults = case(net)
        # 15 segments: the learner's verdict, and one ACK short of the retry
        burst(net.sim, net.client, 100, 3)
        if express:
            manager = net.manager
            assert (manager.promotions, manager.probes_failed) == after_learner
            assert (net.client._xpath is not None) == bool(after_learner[0])
        burst(net.sim, net.client, 200, 30)
        outcomes[express] = (net.received, net.sim.now, faults and faults.passed)
    assert outcomes[True] == outcomes[False]
    assert [n for n, _when in net.received] == [0, 1, 2, 3, 100, 101, 102, *range(200, 230)]
    assert (net.client._xpath is not None) == promoted_at_end
    if not promoted_at_end:
        assert manager.promotions == 0 and manager.probes_failed >= 2


def test_table_change_while_the_learner_is_in_flight_discards_it():
    net = armed(express=True)
    net.client.send({"n": 100}, 1000)
    table = net.switch.flow_table
    while table._x_on_change is None:  # until the learner is past the switch
        net.sim.step()
    table.install(FlowRule(priority=0, dst_ip="10.9.9.9", actions=[Drop()]))
    net.sim.run()
    manager = net.manager
    assert (manager.promotions, manager.probes_failed) == (0, 1)
    assert net.client._xpath is None
    burst(net.sim, net.client, 200, 30)
    assert (manager.promotions, manager.probes_failed) == (1, 1)


def test_second_learner_arriving_after_promotion_is_ignored():
    net = armed(express=True)
    net.client.send({"n": 100}, 1000)
    while net.client._x_learn:  # until the first learner is on the wire
        net.sim.step()
    net.client._x_learn = True
    net.client.send({"n": 101}, 1000)
    net.sim.run()
    manager = net.manager
    assert net.client._xpath is not None
    assert (manager.promotions, manager.probes_failed, manager.active_flows) == (1, 0, 1)
    assert [n for n, _when in net.received][-2:] == [100, 101]


# -- one invalidation path: the tables the learner crossed -------------


def test_sdn_changes_demote_only_through_a_crossed_table():
    sim, manager, switch, _a, _b, listener, client = build()
    sdn = SdnController()
    sdn.register_switch(switch)
    sdn.register_switch(Switch(sim, "elsewhere"))
    _promote(sim, manager, listener, client)
    rule = FlowRule(priority=0, dst_ip="10.9.9.9", actions=[Drop()], cookie="c")
    sdn.install_rule("elsewhere", rule)
    assert sdn.remove_by_cookie("c", switch_name="elsewhere") == 1
    assert client._xpath is not None and manager.demotions == 0
    sdn.install_rule("sw", rule)
    assert client._xpath is None and manager.demotions == 1
    burst(sim, client, 100, 8)
    assert client._xpath is not None
    assert sdn.remove_by_cookie("c") == 1
    assert client._xpath is None and manager.demotions == 2


def test_removing_a_switch_port_demotes_the_flows_that_crossed_it():
    """Unplugging a host the way ``CloudController.unplug_instance_iface``
    does forgets the MACs learnt behind its switch port.  A promoted flow
    must hear that, or it keeps delivering to the unplugged host."""
    outcomes = {}
    for express in (False, True):
        sim, manager, switch, _a, b, listener, client = build(express)
        received = transfer(sim, listener, client)
        sim.run()
        assert (client._xpath is not None) == express
        port = switch.remove_port("host-b")
        b.interfaces[0].link = None
        port.link = None
        if express:
            assert client._xpath is None and manager.demotions == 1
        burst(sim, client, 8, 4)
        outcomes[express] = ([m["n"] for m in received], sim.now)
    assert outcomes[True] == outcomes[False]
    assert outcomes[True][0] == list(range(8))


def test_nat_removal_that_removes_nothing_is_not_a_change():
    sim, manager, _switch, _a, b, listener, client = build()
    _promote(sim, manager, listener, client)
    b.stack.nat.install(NatRule(match_dst_port=9, dnat_port=10, cookie="c"))
    burst(sim, client, 100, 8)
    assert client._xpath is not None
    assert b.stack.nat.remove_by_cookie("no-such-cookie") == 0
    assert client._xpath is not None
    assert b.stack.nat.remove_by_cookie("c") == 1
    assert client._xpath is None


# -- keep the twin from growing back -----------------------------------


def test_express_knows_no_other_element_from_the_inside():
    """``express.py`` learns the way from what the elements report; it
    imports none of them and reads none of their private state: the
    ``_x*`` hooks are the ones it owns, and the destination stack's
    socket tables stay for the delivery demux, which measured 4% slower
    on ``fio_express`` through ``NetworkStack._deliver_local``."""
    tree = ast.parse(Path(repro.net.express.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.add(node.module)
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    assert {m for m in imported if m.startswith("repro")} == {
        "repro.sim.core", "repro.net.packet",
    }
    private = {
        f"{ast.unparse(node.value)}.{node.attr}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and node.attr.startswith("_")
        and not node.attr.startswith(("__", "_x"))
        and ast.unparse(node.value) not in ("self", "mgr", "self.mgr")
    }
    assert private == {"stack._sockets", "stack._listeners"}
