"""Stored record tuples read back as the schema dicts, through every sink.

The bus hands sinks flat tuples (span, event, and the dict-free hop
layout); every read path must rebuild exactly the dicts of the record
schema, key order included, and the streamed JSONL must equal the
export."""

from __future__ import annotations

import json

from repro.obs import (
    CollectorSink,
    JsonlSink,
    ObsBus,
    RingSink,
    record_dict,
    validate_lines,
    validate_record,
)
from repro.sim import Simulator

SPAN = {
    "type": "span", "seq": 3, "ts": 0.0, "trace": 1, "span": 1, "parent": None,
    "name": "iscsi.write", "start": 0.0, "end": 0.25, "status": "ok",
    "attrs": {"offset": 0},
}
EVENT = {
    "type": "event", "seq": 2, "ts": 0.25, "kind": "nvm.append", "target": "mb1",
    "trace": 1, "span": 1, "attrs": {"journal": 3},
}
HOP = {
    "type": "event", "seq": 1, "ts": 0.25, "kind": "net.hop", "target": "sw1",
    "trace": 1, "span": 1, "attrs": {"bytes": 4162},
}


def emit_three_shapes(bus: ObsBus) -> None:
    """One hop, one event, one span, at sim time 0.25."""
    sim = bus.sim

    def proc():
        span = bus.span("iscsi.write", offset=0)
        yield sim.timeout(0.25)
        span.context().hop("sw1", _Packet(4162), sim.now)
        span.event("nvm.append", target="mb1", journal=3)
        span.finish()

    sim.run(until=sim.process(proc()))


class _Packet:
    def __init__(self, size: int):
        self.size = size


def test_three_shapes_round_trip_through_every_sink(tmp_path):
    bus = ObsBus(Simulator())
    extra = bus.add_sink(CollectorSink())
    ring = bus.add_sink(RingSink(capacity=8))
    path = tmp_path / "stream.jsonl"
    stream = bus.add_sink(JsonlSink(str(path)))
    emit_three_shapes(bus)
    stream.close()

    want = [HOP, EVENT, SPAN]
    for records in (bus.records, extra.records, ring.records):
        assert records == want
        assert [list(r) for r in records] == [list(w) for w in want]
    assert [json.loads(line) for line in path.read_text().splitlines()] == want
    assert path.read_text() == bus.export_jsonl()  # no metrics registered
    assert validate_lines(path.read_text(), names=True) == []


def test_ring_evicts_oldest_first_across_shapes():
    bus = ObsBus(Simulator())
    ring = bus.add_sink(RingSink(capacity=2))
    emit_three_shapes(bus)
    assert len(ring) == 2
    assert ring.records == [EVENT, SPAN]
    bus.event("tick")
    assert [r["seq"] for r in ring.records] == [3, 4]


def test_hop_reads_back_as_the_generic_net_hop_event():
    via_event, via_hop = ObsBus(Simulator()), ObsBus(Simulator())
    ctx = via_event.span("op").context()
    via_event.event("net.hop", target="sw1", ctx=ctx, bytes=1500)
    via_hop.span("op").context().hop("sw1", _Packet(1500), 0.0)
    assert via_event.records == via_hop.records
    assert via_event.export_jsonl() == via_hop.export_jsonl()
    assert via_event.events_emitted == via_hop.events_emitted == 1


def test_record_dict_is_the_function_custom_sinks_call():
    class KindSink:
        def __init__(self) -> None:
            self.kinds: list[str] = []

        def emit(self, record: tuple) -> None:
            d = record_dict(record)
            self.kinds.append(d.get("kind", d["type"]))

    bus = ObsBus(Simulator())
    sink = bus.add_sink(KindSink())
    emit_three_shapes(bus)
    assert sink.kinds == ["net.hop", "nvm.append", "span"]


def test_validator_rejects_a_float_id_or_seq():
    assert validate_record(SPAN) == []
    assert validate_record(EVENT) == []
    assert validate_record({**SPAN, "trace": 1.5}) != []
    assert validate_record({**SPAN, "span": 2.0}) != []
    assert validate_record({**EVENT, "seq": 2.0}) != []

