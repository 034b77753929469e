"""Kernel fast-path semantics: same-time FIFO and deferred resumes.

These pin down the ordering guarantees the deferred-FIFO optimization
must preserve: same-time occurrences fire in scheduling order whether
they sit on the heap (true timeouts) or the deferred deque (succeeded
events, zero-delay timeouts, process resumes).
"""

import pytest

from repro.sim import SimulationError, Simulator, Store
from tests.sim.reference_resource import Resource


def test_same_time_mixed_sources_fire_in_schedule_order():
    """succeed(), timeout(0), and process starts interleave strictly FIFO."""
    sim = Simulator()
    fired = []

    gate_a = sim.event()
    gate_b = sim.event()

    def waiter(gate, tag):
        yield gate
        fired.append(tag)

    def zero_sleeper(tag):
        yield sim.timeout(0)
        fired.append(tag)

    sim.process(waiter(gate_a, "a"))
    sim.process(waiter(gate_b, "b"))
    gate_a.succeed()            # deferred: fires after both bootstraps
    sim.process(zero_sleeper("z1"))  # bootstrap now; timeout(0) queued later
    gate_b.succeed()
    sim.process(zero_sleeper("z2"))
    sim.run()
    # gate_a/gate_b fire in scheduling order; the zero-delay timeouts are
    # only scheduled once their bootstraps run, putting them last — the
    # exact order the sequence counter dictates.
    assert fired == ["a", "b", "z1", "z2"]


def test_heap_event_at_current_time_beats_younger_deferred():
    """A timed event landing exactly 'now' with an older sequence number
    fires before deferred entries created afterwards."""
    sim = Simulator()
    fired = []

    def timed():
        yield sim.timeout(1.0)
        fired.append("timed")

    def trigger_then_wait(gate):
        yield sim.timeout(0.5)
        # schedules a *timed* event to fire at t=1.0, before "timed"?
        # No: "timed"'s timeout was scheduled first (lower seq), so at
        # t=1.0 it must fire first even though this one also lands there.
        yield sim.timeout(0.5)
        fired.append("second")
        gate.succeed()

    gate = sim.event()

    def waiter():
        yield gate
        fired.append("waiter")

    sim.process(timed())
    sim.process(trigger_then_wait(gate))
    sim.process(waiter())
    sim.run()
    assert fired == ["timed", "second", "waiter"]
    assert sim.now == 1.0


def test_call_at_is_one_occurrence_in_sequence_order():
    """``call_at`` costs one sequence number; a call landing on the
    current instant keeps its place among deferred entries, exactly
    like the zero-delay timeout it replaces in the switch pipeline."""
    sim = Simulator()
    fired = []

    def proc():
        yield sim.timeout(1.0)
        sim.event().succeed().callbacks.append(lambda _e: fired.append("deferred-1"))
        before = sim._sequence
        sim.call_at(sim.now, fired.append, "call-now")
        assert sim._sequence == before + 1
        sim.event().succeed().callbacks.append(lambda _e: fired.append("deferred-2"))
        sim.call_at(1.5, fired.append, "call-later")

    sim.process(proc())
    sim.run()
    assert fired == ["deferred-1", "call-now", "deferred-2", "call-later"]
    assert sim.now == 1.5
    with pytest.raises(SimulationError):
        sim.call_at(1.0, fired.append, "past")


def test_disarmed_calls_never_fire_but_advance_the_clock():
    """Disarmed calls never fire but still advance the clock, and
    ``disarm_calls`` hands back their arguments in ``(when, seq)``
    order, which is also the order the armed ones fire in."""
    sim = Simulator()
    fired = []
    other = []
    sim.call_at(4.0, fired.append, "late-doomed")
    sim.call_at(2.0, fired.append, "a")
    sim.call_at(3.0, fired.append, "b")
    sim.call_at(3.0, fired.append, "doomed")
    sim.call_at(1.0, fired.append, "early-doomed")
    sim.call_at(3.0, other.append, "doomed")  # another fn: untouched
    before = sim._sequence
    disarmed = sim.disarm_calls(fired.append, lambda args: "doomed" in args[0])
    assert disarmed == [("early-doomed",), ("doomed",), ("late-doomed",)]
    assert sim._sequence == before  # disarming costs no sequence number
    assert sim.disarm_calls(fired.append, lambda args: "doomed" in args[0]) == []
    sim.run(until=1.0)
    assert fired == [] and sim.now == 1.0
    sim.run()
    assert fired == ["a", "b"] and other == ["doomed"]
    assert sim.now == 4.0  # the disarmed entry at 4.0 still advanced the clock


def test_disarming_several_functions_keeps_one_firing_order():
    """Calls of two functions come back interleaved in ``(when, seq)``
    order, as one list."""
    sim = Simulator()
    first, second = [], []
    sim.call_at(2.0, first.append, "x")
    sim.call_at(1.0, second.append, "y")
    sim.call_at(2.0, second.append, "z")
    sim.call_at(1.0, first.append, "w")
    assert sim.disarm_calls((first.append, second.append), lambda args: True) == [
        ("y",), ("w",), ("x",), ("z",)
    ]
    sim.run()
    assert first == second == []


def test_yield_already_processed_event_resumes_fifo():
    """Resuming off a processed event queues at the back of the current
    tick, not synchronously and not at the front."""
    sim = Simulator()
    done = sim.event()
    done.succeed("early")
    sim.run()  # process 'done' so it is fully processed
    order = []

    def late_waiter():
        value = yield done  # already processed: deferred resume
        order.append(("late", value))

    def other():
        yield sim.timeout(0)
        order.append(("other", None))

    sim.process(late_waiter())
    sim.process(other())
    sim.run()
    # late_waiter bootstraps first and its deferred resume is queued
    # before other's zero-timeout even exists (other bootstraps second):
    # resuming off a processed event keeps strict FIFO position.
    assert order == [("late", "early"), ("other", None)]


def test_run_until_horizon_drains_deferred_at_horizon():
    sim = Simulator()
    fired = []

    def proc():
        yield sim.timeout(5)
        gate = sim.event()
        gate.succeed()
        yield gate  # deferred activity exactly at the horizon
        fired.append(sim.now)

    sim.process(proc())
    sim.run(until=5)
    assert fired == [5]
    assert sim.now == 5


def test_run_until_event_counts_deferred_as_pending_work():
    sim = Simulator()
    gate = sim.event()

    def proc():
        yield sim.timeout(0)
        gate.succeed("ok")

    sim.process(proc())
    assert sim.run(until=gate) == "ok"


def test_resource_lazy_cancel_skips_to_live_waiter():
    """A cancelled queued request is skipped when a slot frees, and the
    next live waiter is granted in FIFO order."""
    sim = Simulator()
    res = Resource(sim, capacity=1)
    held = res.request()
    ghost = res.request()
    live = res.request()
    res.release(ghost)  # cancel while queued (lazy)
    assert res.waiting == 1
    res.release(held)
    assert live.triggered
    assert not ghost.triggered
    assert res.count == 1
    res.release(live)
    assert res.count == 0


def test_resource_release_cancelled_request_twice_errors():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    res.request()
    queued = res.request()
    res.release(queued)
    with pytest.raises(SimulationError):
        res.release(queued)


def test_event_slots_reject_dynamic_attributes():
    """__slots__ is load-bearing for kernel memory; catch regressions."""
    sim = Simulator()
    for obj in (sim.event(), sim.timeout(1), Store(sim).get()):
        with pytest.raises(AttributeError):
            obj.scratchpad = 1
