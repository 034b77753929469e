"""Sharded kernel: one-shard bit-identity, deterministic merge."""

import pytest

from repro.sim import ShardedKernel, SimulationError, Simulator
from repro.sim.shard import ShardSimulator


def _busy_scenario(sim, log, tag=""):
    """A workload touching every seq-allocating path: immediate and
    delayed timeouts, event succeed (deferred resume), interrupts, and
    scheduled calls (one landing on a worker's wake-up instant)."""

    def worker(name, delay):
        yield sim.timeout(delay)
        log.append((sim.now, f"{tag}{name}"))
        yield sim.timeout(0.0)
        log.append((sim.now, f"{tag}{name}+"))

    def sleeper():
        try:
            yield sim.timeout(100.0)
        except Exception:
            log.append((sim.now, f"{tag}hup"))

    def interrupter(victim):
        yield sim.timeout(2.5)
        victim.interrupt("wake")

    def waiter(gate):
        value = yield gate
        log.append((sim.now, f"{tag}gate:{value}"))

    def opener(gate):
        yield sim.timeout(1.25)
        gate.succeed("open")

    victim = sim.process(sleeper())
    sim.process(interrupter(victim))
    gate = sim.event()
    sim.process(waiter(gate))
    sim.process(opener(gate))
    for i, delay in enumerate((3.0, 1.0, 1.0, 0.5)):
        sim.process(worker(f"w{i}", delay))
    sim.call_at(1.0, log.append, (1.0, f"{tag}call"))
    sim.call_at(0.0, log.append, (0.0, f"{tag}call-now"))


def test_one_shard_is_bit_identical_to_plain_simulator():
    plain_log, plain = [], Simulator()
    _busy_scenario(plain, plain_log)
    plain.run()

    kernel = ShardedKernel(1)
    shard_log = []
    _busy_scenario(kernel.shards[0], shard_log)
    kernel.run()

    assert shard_log == plain_log
    # same occurrence count: the shared counter allocated exactly the
    # sequence numbers the plain kernel would have
    assert kernel.events == plain._sequence
    assert kernel.now == plain.now


def test_merge_order_is_global_time_seq():
    kernel = ShardedKernel(3)
    log = []

    def beep(sim, at, tag):
        yield sim.timeout(at)
        log.append((sim.now, tag))

    # same fire times across shards: creation (seq) order must break
    # the ties, regardless of which shard hosts which process
    kernel.shards[2].process(beep(kernel.shards[2], 1.0, "a"))
    kernel.shards[0].process(beep(kernel.shards[0], 1.0, "b"))
    kernel.shards[1].process(beep(kernel.shards[1], 1.0, "c"))
    kernel.shards[1].process(beep(kernel.shards[1], 0.5, "d"))
    kernel.run()
    assert [tag for _, tag in log] == ["d", "a", "b", "c"]


def test_merge_is_reproducible():
    def build():
        kernel = ShardedKernel(4)
        log = []
        for i in range(16):
            _busy_scenario(kernel.shards[i % 4], log, tag=f"s{i % 4}.{i}:")
        return kernel, log

    k1, log1 = build()
    k1.run()
    k2, log2 = build()
    k2.run()
    assert log1 == log2
    assert k1.events == k2.events
    assert k1.now == k2.now


def test_run_horizon_advances_every_shard_clock():
    kernel = ShardedKernel(2)
    fired = []

    def late(sim):
        yield sim.timeout(50.0)
        fired.append(sim.now)

    kernel.shards[0].process(late(kernel.shards[0]))
    kernel.run(until=10.0)
    assert fired == []
    assert all(shard.now == 10.0 for shard in kernel.shards)
    kernel.run()
    assert fired == [50.0]


def test_run_until_event_and_exhaustion():
    kernel = ShardedKernel(2)
    gate = kernel.shards[1].event()

    def opener(sim):
        yield sim.timeout(2.0)
        gate.succeed("done")

    kernel.shards[0].process(opener(kernel.shards[0]))
    assert kernel.run_until(gate) == "done"

    dead = kernel.shards[0].event()
    with pytest.raises(SimulationError):
        kernel.run_until(dead)


def test_shard_for_placement_and_validation():
    kernel = ShardedKernel(3)
    assert kernel.shard_for(7) is kernel.shards[1]
    assert isinstance(kernel.shard_for(0), ShardSimulator)
    with pytest.raises(SimulationError):
        ShardedKernel(0)
