"""Unit tests for the observability bus: ids, spans, events, metrics,
sinks, exports, and the record validator."""

from __future__ import annotations

import json

from repro.obs import (
    CollectorSink,
    JsonlSink,
    ObsBus,
    RingSink,
    validate_lines,
    validate_record,
)
from repro.obs.metrics import S
from repro.sim import Simulator


def make_bus():
    return ObsBus(Simulator())


# ------------------------------------------------------------------ ids


def test_ids_are_deterministic_counters():
    a, b = make_bus(), make_bus()
    for bus in (a, b):
        root = bus.span("op")
        child = bus.span("sub", parent=root)
        child.finish()
        root.finish()
    assert a.export_jsonl() == b.export_jsonl()
    spans = [r for r in a.export_records() if r["type"] == "span"]
    assert [s["trace"] for s in spans] == [1, 1]
    assert sorted(s["span"] for s in spans) == [1, 2]


def test_fresh_trace_per_root_span():
    bus = make_bus()
    r1, r2 = bus.span("a"), bus.span("b")
    assert r1.trace_id != r2.trace_id
    assert r1.parent_id is None and r2.parent_id is None


# ---------------------------------------------------------------- spans


def test_span_tree_parenting():
    bus = make_bus()
    root = bus.span("root")
    via_span = bus.span("child1", parent=root)
    via_ctx = bus.span("child2", parent=root.context())
    for span in (via_span, via_ctx):
        assert span.trace_id == root.trace_id
        assert span.parent_id == root.span_id


def test_span_timestamps_come_from_sim_clock():
    sim = Simulator()
    bus = ObsBus(sim)

    def proc():
        span = bus.span("slow")
        yield sim.timeout(0.5)
        span.finish()

    sim.run(until=sim.process(proc()))
    (record,) = [r for r in bus.records if r["type"] == "span"]
    assert record["start"] == 0.0
    assert record["end"] == 0.5


def test_finish_is_idempotent():
    bus = make_bus()
    span = bus.span("once")
    span.finish("ok")
    span.finish("error")
    spans = [r for r in bus.records if r["type"] == "span"]
    assert len(spans) == 1
    assert spans[0]["status"] == "ok"


def test_finish_attrs_merge():
    bus = make_bus()
    span = bus.span("op", offset=0)
    span.finish("error", reason="io")
    (record,) = bus.records
    assert record["attrs"] == {"offset": 0, "reason": "io"}


# --------------------------------------------------------------- events


def test_event_with_context_joins_trace():
    bus = make_bus()
    span = bus.span("root")
    bus.event("net.hop", target="sw1", ctx=span.context(), bytes=1500)
    span.event("nvm.append", journal=3)
    events = [r for r in bus.records if r["type"] == "event"]
    assert all(e["trace"] == span.trace_id for e in events)
    assert all(e["span"] == span.span_id for e in events)


# -------------------------------------------------------------- metrics


def test_metrics_registry_lazy_and_scoped():
    bus = make_bus()
    bus.metrics.counter("link.tx", "a<->b").inc()
    bus.metrics.counter("link.tx", "a<->b").inc(2)
    bus.metrics.gauge("relay.nvm", "mb1").set(7)
    hist = bus.metrics.histogram("disk.service_time", "disk1")
    hist.observe(0.001)
    hist.observe(0.003)
    snap = {(r["type"], r["name"], r["scope"]): r for r in bus.metrics.snapshot()}
    assert snap[("counter", "link.tx", "a<->b")]["value"] == 3
    assert snap[("gauge", "relay.nvm", "mb1")]["value"] == 7
    h = snap[("histogram", "disk.service_time", "disk1")]
    assert h["count"] == 2
    assert h["min"] == 0.001 and h["max"] == 0.003


def test_percentile_needs_no_opt_in():
    hist = make_bus().metrics.histogram("disk.service_time", "disk1")
    assert hist.percentile(99) == 0.0  # nothing observed yet
    for value in (0.003, 0.001, 0.002):
        hist.observe(value)
    assert 0.002 <= hist.percentile(50) <= 0.002 * (1 + 1 / S)
    assert hist.percentile(99) == 0.003  # the max's bucket, clamped to max


def test_metrics_snapshot_is_sorted_and_stable():
    bus = make_bus()
    bus.metrics.counter("z").inc()
    bus.metrics.counter("a").inc()
    assert bus.metrics.snapshot() == bus.metrics.snapshot()
    names = [r["name"] for r in bus.metrics.snapshot()]
    assert names == sorted(names)


# ---------------------------------------------------------------- sinks


def test_ring_sink_caps_capacity():
    bus = make_bus()
    ring = bus.add_sink(RingSink(capacity=3))
    for i in range(10):
        bus.event("tick", n=i)
    assert len(ring) == 3
    assert [r["attrs"]["n"] for r in ring.records] == [7, 8, 9]


def test_jsonl_sink_streams(tmp_path):
    bus = make_bus()
    path = tmp_path / "stream.jsonl"
    sink = bus.add_sink(JsonlSink(str(path)))
    bus.event("one")
    bus.event("two")
    sink.close()
    lines = path.read_text().splitlines()
    assert sink.lines_written == 2
    assert [json.loads(line)["kind"] for line in lines] == ["one", "two"]


def test_every_sink_sees_every_record():
    bus = make_bus()
    extra = bus.add_sink(CollectorSink())
    span = bus.span("op")
    span.finish()
    bus.event("kind")
    assert extra.records == bus.collector.records


# -------------------------------------------------------------- exports


def test_export_jsonl_roundtrip_and_schema(tmp_path):
    bus = make_bus()
    root = bus.span("iscsi.write", target="iqn.x", offset=0)
    child = bus.span("target.execute", parent=root.context())
    child.finish()
    root.finish()
    bus.event("net.hop", target="sw", ctx=root.context(), bytes=4096)
    bus.metrics.counter("link.tx", "a<->b").inc()
    path = tmp_path / "trace.jsonl"
    text = bus.export_jsonl(str(path))
    assert path.read_text() == text
    assert text.endswith("\n")
    assert validate_lines(text) == []


def test_export_chrome_shape(tmp_path):
    bus = make_bus()
    span = bus.span("op")
    span.event("mark")
    span.finish()
    path = tmp_path / "trace.json"
    trace = bus.export_chrome(str(path))
    assert json.loads(path.read_text()) == json.loads(json.dumps(trace))
    phases = sorted(e["ph"] for e in trace["traceEvents"])
    assert phases == ["X", "i"]


# ------------------------------------------------------------ validator


def test_validate_record_rejects_bad_records():
    assert validate_record({"type": "mystery"}) != []
    assert validate_record({"type": "event", "seq": 1}) != []  # missing keys
    good = {
        "type": "event", "seq": 1, "ts": 0.0, "kind": "k",
        "target": "", "trace": None, "span": None, "attrs": {},
    }
    assert validate_record(good) == []
    assert validate_record({**good, "seq": True}) != []  # bool is not an int
    assert validate_record({**good, "extra": 1}) != []  # unknown key


def test_validate_lines_checks_seq_monotonicity():
    bus = make_bus()
    bus.event("a")
    bus.event("b")
    text = bus.export_jsonl()
    assert validate_lines(text) == []
    assert validate_lines("\n".join(reversed(text.splitlines()))) != []
