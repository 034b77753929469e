"""Unit tests for the discrete-event kernel."""

import pytest

from repro.sim import AnyOf, SimulationError, Simulator


def test_timeout_advances_clock():
    sim = Simulator()

    def proc():
        yield sim.timeout(1.5)
        return sim.now

    done = sim.process(proc())
    assert sim.run(until=done) == 1.5
    assert sim.now == 1.5


def test_timeouts_fire_in_order():
    sim = Simulator()
    fired = []

    def waiter(delay, tag):
        yield sim.timeout(delay)
        fired.append(tag)

    sim.process(waiter(3.0, "c"))
    sim.process(waiter(1.0, "a"))
    sim.process(waiter(2.0, "b"))
    sim.run()
    assert fired == ["a", "b", "c"]


def test_same_time_events_fifo():
    sim = Simulator()
    fired = []

    def waiter(tag):
        yield sim.timeout(1.0)
        fired.append(tag)

    for tag in "abcd":
        sim.process(waiter(tag))
    sim.run()
    assert fired == list("abcd")


def test_negative_timeout_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.timeout(-1)


def test_process_return_value():
    sim = Simulator()

    def proc():
        yield sim.timeout(1)
        return 42

    assert sim.run(until=sim.process(proc())) == 42


def test_process_waits_on_process():
    sim = Simulator()

    def inner():
        yield sim.timeout(2)
        return "inner-result"

    def outer():
        result = yield sim.process(inner())
        return result, sim.now

    assert sim.run(until=sim.process(outer())) == ("inner-result", 2)


def test_event_succeed_wakes_waiter():
    sim = Simulator()
    gate = sim.event()
    woke = []

    def waiter():
        value = yield gate
        woke.append((sim.now, value))

    def opener():
        yield sim.timeout(5)
        gate.succeed("open")

    sim.process(waiter())
    sim.process(opener())
    sim.run()
    assert woke == [(5, "open")]


def test_event_fail_raises_in_waiter():
    sim = Simulator()
    gate = sim.event()
    caught = []

    def waiter():
        try:
            yield gate
        except ValueError as exc:
            caught.append(str(exc))

    def failer():
        yield sim.timeout(1)
        gate.fail(ValueError("boom"))

    sim.process(waiter())
    sim.process(failer())
    sim.run()
    assert caught == ["boom"]


def test_double_trigger_rejected():
    sim = Simulator()
    gate = sim.event()
    gate.succeed()
    with pytest.raises(SimulationError):
        gate.succeed()


def test_yield_already_triggered_event():
    sim = Simulator()
    gate = sim.event()
    gate.succeed("early")
    sim.run()  # drain so the event's callbacks have run

    def late_waiter():
        value = yield gate
        return value

    assert sim.run(until=sim.process(late_waiter())) == "early"


def test_any_of_returns_first():
    sim = Simulator()

    def proc():
        t1, t2 = sim.timeout(1, "fast"), sim.timeout(3, "slow")
        results = yield AnyOf(sim, [t1, t2])
        return list(results.values()), sim.now

    assert sim.run(until=sim.process(proc())) == (["fast"], 1)


def test_any_of_with_pretriggered_event():
    sim = Simulator()
    done = sim.event()
    done.succeed("x")
    sim.run()  # ``done`` is processed

    def proc():
        t = sim.timeout(2, "y")
        results = yield AnyOf(sim, [done, t])
        return list(results.values()), sim.now

    assert sim.run(until=sim.process(proc())) == (["x"], 0)


def test_any_of_fails_with_the_first_failure():
    sim = Simulator()
    gate = sim.event()

    def opener():
        yield sim.timeout(1)
        gate.fail(ValueError("refused"))

    def proc():
        try:
            yield AnyOf(sim, [gate, sim.timeout(3, "late")])
        except ValueError as exc:
            return str(exc), sim.now

    sim.process(opener())
    assert sim.run(until=sim.process(proc())) == ("refused", 1)


def test_empty_conditions_trigger_immediately():
    sim = Simulator()
    assert AnyOf(sim, []).triggered


def test_run_until_time_stops_early():
    sim = Simulator()
    fired = []

    def waiter():
        yield sim.timeout(10)
        fired.append("late")

    sim.process(waiter())
    sim.run(until=5)
    assert fired == []
    assert sim.now == 5
    sim.run()
    assert fired == ["late"]


def test_unhandled_process_exception_propagates():
    sim = Simulator()

    def bad():
        yield sim.timeout(1)
        raise RuntimeError("unhandled")

    sim.process(bad())
    with pytest.raises(RuntimeError, match="unhandled"):
        sim.run()


def test_watched_process_exception_fails_waiter():
    sim = Simulator()

    def bad():
        yield sim.timeout(1)
        raise RuntimeError("inner failure")

    def outer():
        try:
            yield sim.process(bad())
        except RuntimeError as exc:
            return f"caught: {exc}"

    assert sim.run(until=sim.process(outer())) == "caught: inner failure"


def test_run_until_event_without_events_errors():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.run(until=sim.event())
