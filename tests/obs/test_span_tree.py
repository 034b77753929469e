"""End-to-end trace shape: one fio-style write through the worst-case
MB-ACTIVE-RELAY testbed must yield a *single connected span tree* —
initiator -> gateways -> relay -> service -> target — exportable as
schema-valid JSONL and chrome-trace JSON (the tentpole acceptance
criterion)."""

from __future__ import annotations

import json

import pytest

from benchmarks.harness import MB_ACTIVE, build_testbed
from repro.obs import (
    ObsBus,
    events_of,
    first_trace,
    format_hop_table,
    instrument,
    spans_of,
    trace_rows,
    validate_lines,
)


@pytest.fixture(scope="module")
def traced_write():
    bed = build_testbed(MB_ACTIVE)
    bus = ObsBus(bed.sim)
    stats = instrument(bus, storm=bed.storm)

    def one_write():
        yield bed.session.write(0, 4096, bytes(4096))

    bed.run(one_write())
    return bed, bus, stats


def test_instrument_covers_the_plant(traced_write):
    _bed, _bus, stats = traced_write
    assert stats["switches"] >= 2
    assert stats["links"] > 0
    assert stats["relays"] == 1
    assert stats["services"] == 1


def test_single_connected_span_tree(traced_write):
    _bed, bus, _stats = traced_write
    records = bus.export_records()
    trace = first_trace(records, root_prefix="iscsi.write")
    assert trace is not None
    spans = spans_of(records, trace)
    names = {s["name"] for s in spans}
    # every tier of the paper's worst-case data path shows up
    assert "iscsi.write" in names
    assert "relay.active" in names
    assert "service.encryption" in names
    assert "target.execute" in names
    # exactly one root, and every other span's parent is in the tree
    ids = {s["span"] for s in spans}
    roots = [s for s in spans if s["parent"] is None]
    assert len(roots) == 1 and roots[0]["name"] == "iscsi.write"
    for span in spans:
        if span["parent"] is not None:
            assert span["parent"] in ids
        assert span["status"] == "ok"
        assert span["end"] >= span["start"]


def test_hops_traverse_both_gateways(traced_write):
    _bed, bus, _stats = traced_write
    records = bus.export_records()
    trace = first_trace(records, root_prefix="iscsi.write")
    hops = {e["target"] for e in events_of(records, trace, kind="net.hop")}
    assert "sgw-in-acme" in hops
    assert "sgw-out-acme" in hops
    journal = events_of(records, trace, kind="nvm.")
    assert any(e["kind"] == "nvm.append" for e in journal)


def test_exports_are_schema_valid(traced_write, tmp_path):
    _bed, bus, _stats = traced_write
    text = bus.export_jsonl(str(tmp_path / "trace.jsonl"))
    assert validate_lines(text) == []
    chrome = bus.export_chrome(str(tmp_path / "trace.json"))
    assert chrome["traceEvents"]
    json.dumps(chrome)  # must be serializable as-is


def test_hop_table_renders_the_write(traced_write):
    _bed, bus, _stats = traced_write
    records = bus.export_records()
    trace = first_trace(records, root_prefix="iscsi.write")
    rows = trace_rows(records, trace)
    assert rows[0]["offset"] == 0.0
    table = format_hop_table(rows)
    assert "iscsi.write" in table
    assert "sgw-in-acme" in table


def test_metrics_reflect_the_traffic(traced_write):
    _bed, bus, _stats = traced_write
    snap = {
        (r["type"], r["name"], r["scope"]): r for r in bus.metrics.snapshot()
    }
    assert any(k[1] == "link.tx" for k in snap)
    assert any(k[1] == "disk.service_time" for k in snap)
    assert any(k[1] == "svc.encrypt_bytes" for k in snap)
    assert any(k[1].startswith("target.write") for k in snap)
