"""Unit tests for Store and for the reference ``Resource``."""

import pytest

from repro.sim import SimulationError, Simulator, Store
from tests.sim.reference_resource import Resource


def test_resource_grants_up_to_capacity():
    sim = Simulator()
    res = Resource(sim, capacity=2)
    r1, r2, r3 = res.request(), res.request(), res.request()
    assert r1.triggered and r2.triggered
    assert not r3.triggered
    res.release(r1)
    assert r3.triggered


def test_resource_fifo_order():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    order = []

    def user(tag, hold):
        req = res.request()
        yield req
        order.append(("start", tag, sim.now))
        yield sim.timeout(hold)
        res.release(req)

    for tag, hold in [("a", 2), ("b", 1), ("c", 1)]:
        sim.process(user(tag, hold))
    sim.run()
    assert order == [("start", "a", 0), ("start", "b", 2), ("start", "c", 3)]


def test_resource_release_queued_request_cancels_it():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    held = res.request()
    queued = res.request()
    res.release(queued)  # cancel while still waiting
    res.release(held)
    assert res.count == 0
    assert not queued.triggered


def test_resource_release_unknown_request_errors():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    granted = res.request()
    res.release(granted)
    with pytest.raises(SimulationError):
        res.release(granted)


def test_resource_capacity_validation():
    with pytest.raises(SimulationError):
        Resource(Simulator(), capacity=0)


def test_resource_utilisation_pattern():
    """Capacity-4 pool with 8 one-second jobs finishes in 2 seconds."""
    sim = Simulator()
    res = Resource(sim, capacity=4)
    finish_times = []

    def job():
        req = res.request()
        yield req
        yield sim.timeout(1)
        res.release(req)
        finish_times.append(sim.now)

    for _ in range(8):
        sim.process(job())
    sim.run()
    assert max(finish_times) == 2
    assert finish_times.count(1) == 4 and finish_times.count(2) == 4


def test_store_put_then_get():
    sim = Simulator()
    store = Store(sim)
    store.put("x")
    got = store.get()
    assert got.triggered and got.value == "x"


def test_store_get_blocks_until_put():
    sim = Simulator()
    store = Store(sim)
    received = []

    def consumer():
        item = yield store.get()
        received.append((sim.now, item))

    def producer():
        yield sim.timeout(3)
        store.put("late-item")

    sim.process(consumer())
    sim.process(producer())
    sim.run()
    assert received == [(3, "late-item")]


def test_store_fifo_and_len():
    sim = Simulator()
    store = Store(sim)
    for i in range(3):
        store.put(i)
    assert len(store) == 3
    assert list(store.items) == [0, 1, 2]
    values = [store.get().value for _ in range(3)]
    assert values == [0, 1, 2]
    assert len(store) == 0


def test_store_multiple_blocked_getters_fifo():
    sim = Simulator()
    store = Store(sim)
    received = []

    def consumer(tag):
        item = yield store.get()
        received.append((tag, item))

    sim.process(consumer("first"))
    sim.process(consumer("second"))

    def producer():
        yield sim.timeout(1)
        store.put("A")
        store.put("B")

    sim.process(producer())
    sim.run()
    assert received == [("first", "A"), ("second", "B")]


def test_rng_determinism_and_children():
    from repro.sim import SeededRNG

    a, b = SeededRNG(7), SeededRNG(7)
    assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]
    c1, c2 = SeededRNG(7).child("net"), SeededRNG(7).child("net")
    assert c1.random() == c2.random()
    assert SeededRNG(7).child("net").seed != SeededRNG(7).child("disk").seed
    assert SeededRNG(7).child("x").name == "root/x"
