"""Back-compat: the fault/recovery ``EventLog`` keeps its full PR 2 API
while (optionally) mirroring every record onto the observability bus."""

from __future__ import annotations

from repro.faults import FaultInjector
from repro.obs import EventLog, EventRecord, ObsBus, make_event_log
from repro.sim import Simulator


def test_standalone_log_behaves_as_before():
    log = make_event_log()
    log.record(1.0, "fault.crash", "mb1", reason="test")
    log.record(2.0, "recover.relogin", "vm1")
    assert isinstance(log, EventLog)
    assert len(log) == 2
    assert log.kinds() == ["fault.crash", "recover.relogin"]
    assert log.kinds("fault.") == ["fault.crash"]
    assert log.count("recover.") == 1
    (crash,) = log.matching("fault.")
    assert isinstance(crash, EventRecord)
    assert crash.target == "mb1" and crash.detail == {"reason": "test"}
    assert "[  1.000000s] fault.crash" in log.format()
    assert [r.kind for r in log] == ["fault.crash", "recover.relogin"]


def test_bus_backed_log_forwards_with_caller_timestamp():
    bus = ObsBus(Simulator())
    log = make_event_log(bus)
    log.record(3.5, "fault.link_down", "a<->b", duration=0.2)
    # local list keeps working...
    assert log.count("fault.") == 1
    # ...and the bus saw the same event, caller timestamp preserved
    (event,) = bus.records
    assert event["type"] == "event"
    assert event["kind"] == "fault.link_down"
    assert event["target"] == "a<->b"
    assert event["ts"] == 3.5
    assert event["attrs"] == {"duration": 0.2}


def test_fault_injector_exposes_events_facade():
    sim = Simulator()
    injector = FaultInjector(sim, seed=7)
    assert injector.events is injector.log
    injector.log.record(sim.now, "fault.crash", "x")
    assert injector.events.count("fault.") == 1


def test_fault_injector_accepts_bus_backed_log():
    sim = Simulator()
    bus = ObsBus(sim)
    injector = FaultInjector(sim, seed=7, log=make_event_log(bus))
    injector.log.record(0.0, "fault.crash", "mb1")
    assert bus.records and bus.records[0]["kind"] == "fault.crash"
