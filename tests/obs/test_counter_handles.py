"""Instrumenting a plant again moves its per-packet counters to the new bus.

Links, switches and NAT tables look their hot counters up once, on the
first increment after a bus is wired, and keep the handles.  A handle
kept past a re-wire would go on counting into the first registry.
"""

import pytest

from benchmarks.harness import MB_ACTIVE, VOLUME_SIZE, attach_mode, fio
from repro.cloud import CloudParams
from repro.obs import ObsBus, instrument
from repro.testbed import Testbed

HOT = {"link.tx", "link.tx_bytes", "switch.l2", "switch.flow_hit", "nat.conntrack_hit"}


def hot_counters(bus):
    return {
        (record["name"], record["scope"]): record["value"]
        for record in bus.metrics.snapshot()
        if record["name"] in HOT
    }


@pytest.mark.parametrize("express", [False, True], ids=["packet", "express"])
def test_counter_handles_follow_the_bus(express):
    bed = Testbed(CloudParams(express=express), compute_hosts=5, volume_size=VOLUME_SIZE)
    attach_mode(bed, MB_ACTIVE)
    first = ObsBus(bed.sim)
    instrument(first, storm=bed.storm)
    fio(bed, 16 * 1024, ios_per_thread=20)
    # trailing ACKs land (an express segment already walking finishes
    # on the plan it started with, old handles included)
    bed.sim.run(until=bed.sim.now + 0.05)
    settled = hot_counters(first)
    assert {name for name, _scope in settled} == HOT

    second = ObsBus(bed.sim)
    instrument(second, storm=bed.storm)
    fio(bed, 16 * 1024, ios_per_thread=20, seed=7)
    assert hot_counters(first) == settled
    moved = hot_counters(second)
    assert {name for name, _scope in moved} == HOT
    assert all(value > 0 for value in moved.values())
    if express:
        assert bed.sim.express.promotions >= 2  # learnt again on the new bus
