"""`repro.obs` — the unified, deterministic observability spine.

One :class:`ObsBus` per simulation carries trace spans, point events,
and metrics from every instrumented layer (net, iscsi, relay,
platform, services, blockdev, faults).  See DESIGN.md §11 for the
span model and context-propagation story; the short version:

- the bus is the one timeline: faults injected and every recovery
  (``fault.*``, ``ha.*``, ``saga.*``, ``watchdog.*``, ``relay.*``,
  ``replica.*``, ``pool.*``, ``recover.*``) are point events on it,
  read back with ``events_of(bus.records, kind=prefix)``;
- ``bus.span(name)`` opens a root span; ``span.context()`` yields a
  :class:`TraceContext` stamped on in-flight objects (packets, PDUs)
  so downstream layers join the same trace;
- metrics live in ``bus.metrics`` keyed by ``(kind, name, scope)``;
- sinks receive every record as a flat tuple (``record_dict`` turns one
  into its schema dict); exports are deterministic bytes.

With no bus attached every instrumented component's ``obs`` hook is
``None`` and the simulation is bit-identical to an uninstrumented one.
"""

from repro.obs.bus import ObsBus, Span
from repro.obs.context import TraceContext
from repro.obs.instrument import instrument
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.sinks import (
    CollectorSink,
    JsonlSink,
    RingSink,
    Sink,
    record_dict,
    to_chrome_trace,
    to_jsonl_lines,
)
from repro.obs.trace_tools import (
    events_of,
    first_trace,
    format_hop_table,
    format_timeline,
    spans_of,
    trace_rows,
)
from repro.obs.validate import validate_file, validate_lines, validate_record

__all__ = [
    "ObsBus",
    "Span",
    "TraceContext",
    "instrument",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "CollectorSink",
    "JsonlSink",
    "RingSink",
    "Sink",
    "record_dict",
    "to_chrome_trace",
    "to_jsonl_lines",
    "events_of",
    "first_trace",
    "format_hop_table",
    "format_timeline",
    "spans_of",
    "trace_rows",
    "validate_file",
    "validate_lines",
    "validate_record",
]
