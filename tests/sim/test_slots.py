"""FIFO servers as a slot horizon: one kernel occurrence per claim.

``CpuMeter.consume`` and ``Disk.submit`` commit a :class:`Slots` claim
when the request is made and wait for one ``wake_at``.  The property
below runs each against the ``Resource``-based code it replaced (kept
here, over ``tests/sim/reference_resource.py``, as the reference) on drawn request instants, costs and offsets:
completion instants, accounting and resume order must be identical to
the last bit.  The budget tests pin the one occurrence per claim.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.blockdev.disk import BLOCK_SIZE, Disk
from repro.cloud import CpuMeter
from repro.sim import SimulationError, Simulator, Slots
from tests.sim.reference_resource import Resource


class ResourceCpu(CpuMeter):
    """The reference: a vCPU grant, a timeout, a release."""

    def __init__(self, sim, name, cores):
        super().__init__(sim, name, cores)
        self.grants = Resource(sim, cores)

    def consume(self, seconds):
        if seconds <= 0:
            return
        grant = self.grants.request()
        yield grant
        try:
            yield self.sim.timeout(seconds)
            self.busy_time += seconds
            self._window_busy += seconds
        finally:
            self.grants.release(grant)


class ResourceDisk(Disk):
    """The reference: a device-queue grant, the access, a release."""

    def __init__(self, sim, name, capacity, queue_depth):
        super().__init__(sim, name, capacity, queue_depth=queue_depth)
        self.grants = Resource(sim, queue_depth)

    def submit(self, op, offset, length, data=None):
        self._check_bounds(op, offset, length, data)
        grant = self.grants.request()
        yield grant
        try:
            service = self.access_latency + length / self.bandwidth
            if offset != self._last_end_offset:
                service += self.seek_penalty
            self._last_end_offset = offset + length
            self.stats.busy_time += service
            yield self.sim.timeout(service)
            if op == "write":
                self.stats.writes += 1
                self.stats.bytes_written += length
                self._store(offset, data)
                return None
            self.stats.reads += 1
            self.stats.bytes_read += length
            return self._load(offset, length)
        finally:
            self.grants.release(grant)


#: request instants and costs from small grids, so that ties, back-to-back
#: backlogs and equal completion instants are common, plus arbitrary floats
instants = st.one_of(
    st.sampled_from([0.0, 1e-4, 2e-4, 5e-4, 1e-3]),
    st.floats(min_value=0.0, max_value=2e-3, allow_nan=False),
)
costs = st.one_of(
    st.sampled_from([0.0, 1e-4, 2e-4, 3e-4]),
    st.floats(min_value=1e-7, max_value=1e-3, allow_nan=False),
)


def serve(sim, requests, claim):
    """Start one client per ``(at, ...)`` request; each waits until
    ``at``, runs ``claim(request)`` and logs ``(index, now, result)``
    on resuming, so the log is the resume order."""
    log = []

    def client(index, request):
        yield sim.timeout(request[0])
        result = yield from claim(request)
        log.append((index, sim.now, result))

    for index, request in enumerate(requests):
        sim.process(client(index, request))
    sim.run()
    return log


@settings(max_examples=120, deadline=None)
@given(st.sampled_from([1, 2, 4]), st.lists(st.tuples(instants, costs), max_size=12))
def test_cpu_charges_equal_the_resource_reference(cores, requests):
    runs = []
    for meter_class in (CpuMeter, ResourceCpu):
        sim = Simulator()
        meter = meter_class(sim, "vm", cores=cores)
        log = serve(sim, requests, lambda request, m=meter: m.consume(request[1]))
        runs.append((log, meter.busy_time, meter._window_busy, sim.now))
    assert runs[0] == runs[1]


@settings(max_examples=120, deadline=None)
@given(
    st.sampled_from([1, 2, 4]),
    st.lists(
        st.tuples(instants, st.sampled_from(["read", "write"]), st.integers(0, 7),
                  st.integers(1, 3)),
        max_size=12,
    ),
)
def test_disk_accesses_equal_the_resource_reference(depth, requests):
    def access(disk, request):
        _at, op, block, blocks = request
        data = bytes([block + 1]) * (blocks * BLOCK_SIZE) if op == "write" else None
        return disk.submit(op, block * BLOCK_SIZE, blocks * BLOCK_SIZE, data)

    runs = []
    for disk_class in (Disk, ResourceDisk):
        sim = Simulator()
        disk = disk_class(sim, "sda", 16 * BLOCK_SIZE, queue_depth=depth)
        log = serve(sim, requests, lambda request, d=disk: access(d, request))
        runs.append((log, disk.stats, disk._last_end_offset, sim.now))
    assert runs[0] == runs[1]


def grown_per_claim(sim, claim, claims=3):
    """Kernel sequence numbers each of ``claims`` back-to-back claims
    spends, from its request to its completion."""
    grown = []

    def client():
        for _ in range(claims):
            before = sim._sequence
            yield from claim()
            grown.append(sim._sequence - before)

    sim.process(client())
    sim.run()
    return grown


def test_a_cpu_charge_is_one_kernel_occurrence():
    sim = Simulator()
    meter = CpuMeter(sim, "vm", cores=2)
    assert grown_per_claim(sim, lambda: meter.consume(1e-4)) == [1, 1, 1]
    assert meter.busy_time == 1e-4 + 1e-4 + 1e-4


def test_a_disk_access_is_one_kernel_occurrence():
    sim = Simulator()
    disk = Disk(sim, "sda", 16 * BLOCK_SIZE)
    assert grown_per_claim(sim, lambda: disk.submit("read", 0, BLOCK_SIZE)) == [1, 1, 1]
    assert disk.stats.reads == 3


def test_slots_take_the_earliest_free_server():
    slots = Slots(2)
    assert slots.commit(0.0, 3.0) == 3.0
    assert slots.commit(0.0, 1.0) == 1.0
    assert slots.commit(0.5, 1.0) == 2.0  # waits for the server free at 1.0
    assert slots.commit(5.0, 1.0) == 6.0  # an idle server starts now
    assert sorted(slots.busy) == [3.0, 6.0]
    with pytest.raises(SimulationError):
        Slots(0)


def test_queue_depth_changes_only_while_idle():
    sim = Simulator()
    disk = Disk(sim, "sda", 16 * BLOCK_SIZE)
    sim.process(disk.submit("read", 0, BLOCK_SIZE))
    sim.run(until=1e-6)
    with pytest.raises(RuntimeError):
        disk.set_queue_depth(4)
    sim.run()
    disk.set_queue_depth(4)
    assert disk.queue_depth == 4 and len(disk._queue.busy) == 4
