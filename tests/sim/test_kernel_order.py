"""The kernel's firing order is one heap keyed by ``(time, seq)``.

Random programs of timeouts (zero-delay included), ``call_at`` calls,
``wake_at`` wakes (at ``now`` included), ``succeed``/``fail``,
processes that sleep or yield an already-processed event, an ``AnyOf``
over a timeout and a sibling event succeeded at once (the wait of a
connect with a deadline) and disarmed calls run four ways: ``run()``,
``run(until=Event)``, ``run(until=t)`` twice, and repeated ``step()``.
All four must log the same firings at the same instants, end at the
same ``now``, and match :func:`reference`: every occurrence the kernel
spends a sequence number on is one entry of a single heap.  The
deferred FIFO, the inlined loop and the tie rule between them are all
optimisations of that heap.
"""

import heapq
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import SimulationError, Simulator

KINDS = ("timeout", "call", "wake", "succeed", "fail", "processed", "sleep", "anyof", "disarm")
#: few distinct, exactly representable delays, so that ties are common
DELAYS = st.sampled_from([0.0, 0.5, 1.0, 2.0])


@st.composite
def programs(draw):
    """``(nodes, stop)``: node ``i`` is ``(parent, kind, delay)`` and is
    started by ``kind`` when ``parent`` fires (``-1``: at time 0); a
    ``disarm`` node never fires, so nothing hangs off one.  ``stop`` is
    a node that fires."""
    nodes = []
    for _ in range(draw(st.integers(1, 24))):
        live = [i for i, node in enumerate(nodes) if node[1] != "disarm"]
        parent = draw(st.sampled_from([-1] + live))
        kind = draw(st.sampled_from(KINDS if live else KINDS[:-1]))
        nodes.append((parent, kind, draw(DELAYS)))
    live = [i for i, node in enumerate(nodes) if node[1] != "disarm"]
    return nodes, draw(st.sampled_from(live))


def children_of(nodes):
    children = {i: [] for i in range(-1, len(nodes))}
    for i, (parent, _kind, _delay) in enumerate(nodes):
        children[parent].append(i)
    return children


def reference(nodes, stop):
    """The kernel as one heap of ``(time, seq, action)``; each kind's
    entries are the sequence numbers the kernel spends on it."""
    heap, log, seq, now = [], [], itertools.count(), 0.0
    children = children_of(nodes)

    def push(when, action):
        heapq.heappush(heap, (when, next(seq), action))

    def noop(_t):
        pass

    def fire(n, t):
        log.append((t, n))
        if n == stop:
            push(t, noop)  # stop.succeed()
        for child in children[n]:
            start(child, t)

    def start(n, now):
        _parent, kind, d = nodes[n]

        def fire_and_exit(t):  # a process fires its node, then completes
            fire(n, t)
            push(t, noop)

        if kind in ("timeout", "call", "wake"):
            push(now + d, lambda t: fire(n, t))
        elif kind in ("succeed", "fail"):
            push(now, lambda t: fire(n, t))
        elif kind == "processed":  # bootstrap, then a deferred resume
            push(now, lambda t: push(t, fire_and_exit))
        elif kind == "sleep":  # bootstrap, then the timeout
            push(now, lambda t: push(t + d, fire_and_exit))
        elif kind == "anyof":  # the timeout, then the sibling; the first wins
            won = []

            def observe(t):
                if not won:
                    won.append(t)
                    push(t, lambda t: fire(n, t))  # the AnyOf's succeed

            push(now + d, observe)
            push(now, observe)
        else:  # disarm: the slot stays, the call is gone
            push(now + d, noop)

    for root in children[-1]:
        start(root, 0.0)
    while heap:
        now, _seq, action = heapq.heappop(heap)
        action(now)
    return log, now


def run_kernel(nodes, stop, drive, t_mid, t_end):
    sim = Simulator()
    done = sim.event()
    done.succeed()
    sim.run()  # ``done`` is processed before the program starts
    children = children_of(nodes)
    log = []
    stop_event = sim.event()

    def fire(n):
        log.append((sim.now, n))
        if n == stop:
            stop_event.succeed(n)
        for child in children[n]:
            start(child)

    def wait_then_fire(n, event):
        yield event
        fire(n)

    def sleep_then_fire(n, d):
        yield sim.timeout(d)
        fire(n)

    def start(n):
        _parent, kind, d = nodes[n]
        if kind == "timeout":
            sim.timeout(d).callbacks.append(lambda _e: fire(n))
        elif kind == "call":
            sim.call_at(sim.now + d, fire, n)
        elif kind == "wake":
            sim.wake_at(sim.now + d).callbacks.append(lambda _e: fire(n))
        elif kind in ("succeed", "fail"):
            event = sim.event()
            event.callbacks.append(lambda _e: fire(n))
            event.succeed() if kind == "succeed" else event.fail(RuntimeError(n))
        elif kind == "processed":
            sim.process(wait_then_fire(n, done))
        elif kind == "sleep":
            sim.process(sleep_then_fire(n, d))
        elif kind == "anyof":
            sibling = sim.event()
            sim.any_of([sim.timeout(d), sibling]).callbacks.append(lambda _e: fire(n))
            sibling.succeed()
        else:
            sim.call_at(sim.now + d, fire, n)
            assert sim.disarm_calls(fire, lambda args: args == (n,)) == [(n,)]

    for root in children[-1]:
        start(root)
    if drive == "run":
        sim.run()
    elif drive == "until-event":
        assert sim.run(until=stop_event) == stop
        sim.run()
    elif drive == "until-time":
        sim.run(until=t_mid)
        sim.run(until=t_end)
    else:
        while sim._heap or sim._deferred:
            sim.step()
    assert not sim._heap and not sim._deferred
    return log, sim.now


@settings(max_examples=150, deadline=None)
@given(programs(), st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.5, 4.0]))
def test_every_drive_fires_in_one_heap_order(program, t_mid):
    nodes, stop = program
    expected_log, t_end = reference(nodes, stop)
    assert len(expected_log) == sum(kind != "disarm" for _p, kind, _d in nodes)
    for drive in ("run", "until-event", "until-time", "step"):
        got = run_kernel(nodes, stop, drive, min(t_mid, t_end), t_end)
        assert got == (expected_log, t_end), drive


def test_wake_at_refuses_the_past():
    sim = Simulator()
    sim.run(until=1.0)
    with pytest.raises(SimulationError):
        sim.wake_at(0.5)
    wake = sim.wake_at(1.0)  # now itself is allowed
    sim.run()
    assert wake.processed and wake.value is None and sim.now == 1.0
