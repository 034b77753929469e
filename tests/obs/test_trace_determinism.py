"""Run-twice identity for the exported trace stream.

Two fresh fault-free testbeds driven by the same seed must export a
*byte-identical* JSONL stream: trace/span ids come from bus-private
counters, every other id (ports, task tags, relay entry ids) from
allocators of the run's own simulator or components, and timestamps
from the sim clock, so nothing in a record depends on what ran before
it in the process."""

from __future__ import annotations

from benchmarks.harness import MB_ACTIVE, build_testbed, fio
from repro.obs import ObsBus, instrument, validate_lines


def traced_fio_export() -> str:
    bed = build_testbed(MB_ACTIVE)
    bus = ObsBus(bed.sim)
    instrument(bus, storm=bed.storm)
    fio(bed, 4096, threads=1, ios_per_thread=10)
    return bus.export_jsonl()


def test_export_is_byte_identical_across_runs():
    first = traced_fio_export()
    second = traced_fio_export()
    assert first == second
    assert validate_lines(first) == []
    assert len(first.splitlines()) > 100
