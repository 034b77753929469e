"""A fleet session costs its attach and detach sagas and nothing else:
its hold is one wake at the instant ticked I/O would have reached, and
the gateways and middle-boxes it releases are freed by refcount."""

import gc
import weakref

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cloud import CloudController
from repro.fleet import FleetConfig, FleetRun
from repro.fleet.domain import hold_end
from repro.net.link import Interface
from repro.sim import Simulator


def _config(**overrides):
    base = dict(
        seed=7,
        shards=2,
        tenants=20,
        sessions=300,
        arrival_rate=300.0,
        mean_hold=0.3,
        min_hold=0.1,
        ios_per_session=2,
        churn_storms=1,
        storm_size=20,
        ha=True,
    )
    base.update(overrides)
    return FleetConfig(**base)


def _ticked_hold_end(start, hold, ios):
    """Where a hold ends when it ticks its I/O: ``ios`` ticks and a last
    gap, each a :class:`~repro.sim.Timeout` of ``hold / (ios + 1)``."""
    sim = Simulator()

    def session():
        yield sim.timeout(start)
        gap = hold / (ios + 1)
        for _ in range(ios + 1):
            yield sim.timeout(gap)
        return sim.now

    return sim.run(until=sim.process(session()))


@settings(max_examples=300, deadline=None)
@given(
    st.floats(min_value=1e-6, max_value=1e4, allow_nan=False),
    st.floats(min_value=1e-6, max_value=1e3, allow_nan=False),
    st.integers(min_value=0, max_value=12),
)
def test_one_wake_ends_the_hold_where_the_ticks_did(start, hold, ios):
    reference = _ticked_hold_end(start, hold, ios)
    sim = Simulator()
    sim.run(until=sim.timeout(start))
    now = sim.now
    assert sim.run(until=sim.wake_at(hold_end(now, hold, ios))) is None
    assert sim.now == reference  # bit for bit, not approximately


def test_io_count_costs_no_events():
    """Counted I/O is not simulated: a session's ``ios_per_session``
    moves ``fleet.io.ops`` and nothing the kernel does."""
    none, some = FleetRun(_config(ios_per_session=0)), FleetRun(_config(ios_per_session=8))
    quiet, busy = none.run(), some.run()
    assert quiet["events"] == busy["events"]
    assert quiet["trace_digest"] == busy["trace_digest"]
    storm_ios = 20  # a churn storm's sessions count one I/O each
    assert quiet["io_ops"] == storm_ios
    assert busy["io_ops"] == 8 * (busy["sessions"] - storm_ios) + storm_ios


def _record_deletions(monkeypatch, keep_nics):
    """Wrap the two unplug calls, which run only when a VM is deleted:
    a weak reference to each deleted VM, and (``keep_nics``) each of its
    cabled NICs with the switch port at its far end."""
    deleted: list[weakref.ref] = []
    nics: list[tuple[Interface, Interface]] = []
    for name in ("unplug_instance_iface", "unplug_storage_iface"):
        unplug = getattr(CloudController, name)

        def recording(self, node, *args, _unplug=unplug):
            deleted.append(weakref.ref(node))
            if keep_nics:
                nics.extend((nic, nic._peer) for nic in node.interfaces if nic._peer)
            return _unplug(self, node, *args)

        monkeypatch.setattr(CloudController, name, recording)
    return deleted, nics


def test_a_fleet_round_leaves_no_cyclic_garbage(monkeypatch):
    """Every gateway and middle-box a round deletes is gone as soon as
    its last reference is, with the collector off, and the round leaves
    nothing for the collector to find."""
    deleted, _ = _record_deletions(monkeypatch, keep_nics=False)
    run = FleetRun(_config())
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        run.run()
        # before the collection, which clears weak references into the
        # garbage it finds
        alive = [ref for ref in deleted if ref() is not None]
        found = gc.collect()
        garbage = len(gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
    assert deleted and not alive
    assert (found, garbage) == (0, 0)


def test_a_deleted_vm_has_its_nics_severed_on_both_ends(monkeypatch):
    _, nics = _record_deletions(monkeypatch, keep_nics=True)
    FleetRun(_config()).run()
    assert nics
    for nic, port in nics:
        for end in (nic, port):
            assert end.link is None and end._peer is None and end._horizon is None
        assert nic.owner is None and nic.landing is Interface.land
        assert nic._saved_wiring is None
