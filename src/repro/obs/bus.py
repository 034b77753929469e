"""The observability bus: spans, events, metrics, sinks.

One :class:`ObsBus` per :class:`~repro.sim.Simulator` carries every
trace span, point event, and metric the instrumented layers emit.  It
is **purely passive**: it never schedules simulation events, never
touches ``sim.rng``, and draws timestamps straight off the sim clock —
so attaching a bus cannot perturb the event stream, and a run with the
bus detached (every component's ``obs`` hook left ``None``) is
bit-identical to one that never imported this module.

Determinism contract:

- span/trace ids come from plain ``itertools`` counters private to the
  bus — independent of ``sim.rng``, of wall time, and of each other;
- record timestamps come off the sim clock: a span is stamped with its
  start, a switch's ``net.hop`` with the frame's arrival (emitted when
  the pipeline ends), so ``ts`` need not rise with ``seq``;
- records are sequenced by a bus-level emission counter, so an
  exported stream from two identical runs is byte-identical.

Record schema (what every ``records`` read and the JSONL export yield):

- ``{"type": "span", "seq", "ts", "trace", "span", "parent", "name",
  "start", "end", "status", "attrs"}`` — emitted when a span finishes;
- ``{"type": "event", "seq", "ts", "kind", "target", "trace", "span",
  "attrs"}`` — emitted immediately;
- ``{"type": "counter"|"gauge"|"histogram", ...}`` — appended by the
  exports from the metrics registry snapshot.

Sinks receive spans and events as flat tuples, not dicts: the layouts
and the tuple-to-dict function :func:`~repro.obs.sinks.record_dict`
live in :mod:`repro.obs.sinks`.  A ``net.hop`` event has its own
layout, emitted by :meth:`ObsBus.hop`, that keeps the byte count
inline instead of an ``attrs`` dict.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Any, Optional

from repro.obs.context import TraceContext
from repro.obs.metrics import MetricsRegistry
from repro.obs.sinks import CollectorSink, Sink, to_chrome_trace, to_jsonl_lines

if TYPE_CHECKING:
    from repro.sim import Simulator


class Span:
    """One timed operation in a trace tree.

    Created by :meth:`ObsBus.span`; carries deterministic ids and the
    sim-clock start time.  :meth:`context` yields the
    :class:`TraceContext` to stamp onto in-flight objects (packets,
    PDUs) so downstream hops join this tree; :meth:`finish` closes the
    span and emits its record.
    """

    __slots__ = ("bus", "name", "trace_id", "span_id", "parent_id", "start", "end", "status", "attrs")

    def __init__(self, bus: "ObsBus", name: str, trace_id: int, span_id: int,
                 parent_id: Optional[int], attrs: dict):
        self.bus = bus
        self.name = name
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.start = bus.now
        self.end: Optional[float] = None
        self.status = "ok"
        self.attrs = attrs

    def context(self) -> TraceContext:
        return TraceContext(self.bus, self.trace_id, self.span_id)

    def event(self, kind: str, target: str = "", **attrs: Any) -> None:
        """A point event attached to this span."""
        self.bus.event(kind, target=target, trace_id=self.trace_id,
                       span_id=self.span_id, **attrs)

    def finish(self, status: str = "ok", **attrs: Any) -> None:
        if self.end is not None:
            return  # idempotent: double-finish keeps the first record
        self.end = self.bus.now
        self.status = status
        if attrs:
            self.attrs.update(attrs)
        self.bus._emit_span(self)


class ObsBus:
    """Per-simulator trace/metrics bus with pluggable sinks."""

    def __init__(
        self, sim: "Simulator", enabled: bool = True, keep_samples: bool = False
    ):
        self.sim = sim
        self.enabled = enabled
        self._trace_ids = itertools.count(1)
        self._span_ids = itertools.count(1)
        self._seq = itertools.count(1)
        #: keep_samples: histograms retain raw samples for percentile
        #: reads (benchmark harnesses); default stays streaming-only
        self.metrics = MetricsRegistry(keep_samples=keep_samples)
        #: default store every record lands in; exports read from it
        self.collector = CollectorSink()
        self.sinks: list[Sink] = [self.collector]
        self.spans_started = 0
        self.events_emitted = 0

    # -- clock -------------------------------------------------------

    @property
    def now(self) -> float:
        return self.sim.now

    # -- sinks -------------------------------------------------------

    def add_sink(self, sink: Sink) -> Sink:
        self.sinks.append(sink)
        return sink

    @property
    def records(self) -> list[dict]:
        """The collector's records as schema dicts, built afresh on
        every read."""
        return self.collector.records

    def release_scope(self, scope: str) -> int:
        """Evict every metric attributed to ``scope`` (a detached
        tenant) from the registry.  Plain dict surgery — no events, no
        RNG — so the bus stays passive; already-exported records are
        untouched."""
        return self.metrics.evict_scope(scope)

    # -- spans & events ----------------------------------------------

    def span(self, name: str, parent: Any = None, **attrs: Any) -> Span:
        """Open a span.  ``parent`` may be a :class:`Span`, a
        :class:`TraceContext`, or None (which starts a new trace)."""
        if parent is None:
            trace_id = next(self._trace_ids)
            parent_id: Optional[int] = None
        else:
            trace_id = parent.trace_id
            parent_id = parent.span_id
        self.spans_started += 1
        return Span(self, name, trace_id, next(self._span_ids), parent_id, attrs)

    def event(
        self,
        kind: str,
        target: str = "",
        when: Optional[float] = None,
        trace_id: Optional[int] = None,
        span_id: Optional[int] = None,
        ctx: Optional[TraceContext] = None,
        **attrs: Any,
    ) -> None:
        """Emit one point event.  ``ctx`` (if given) attaches the event
        to that context's trace/span; ``when`` overrides the timestamp
        (used by the :class:`~repro.obs.eventlog.EventLog` façade,
        whose callers pass explicit times)."""
        if not self.enabled:
            return
        if ctx is not None:
            trace_id = ctx.trace_id
            span_id = ctx.span_id
        # the EVENT_FIELDS layout of repro.obs.sinks
        record = ("event", next(self._seq), self.now if when is None else when,
                  kind, target, trace_id, span_id, attrs)
        self.events_emitted += 1
        for sink in self.sinks:
            sink.emit(record)

    def hop(self, node: str, trace_id: int, span_id: int, size: int, when: float) -> None:
        """Emit one ``net.hop`` event: ``size`` bytes reaching ``node``
        at ``when`` on that trace/span (a switch records its pass when
        the pipeline ends, stamped with the frame's arrival).  Reads
        back exactly as ``event("net.hop", target=node, when=when,
        bytes=size)`` would, but stores no dict."""
        if not self.enabled:
            return
        record = ("hop", next(self._seq), when, node, trace_id, span_id, size)
        self.events_emitted += 1
        for sink in self.sinks:
            sink.emit(record)

    def _emit_span(self, span: Span) -> None:
        if not self.enabled:
            return
        # the SPAN_FIELDS layout of repro.obs.sinks
        record = ("span", next(self._seq), span.start, span.trace_id, span.span_id,
                  span.parent_id, span.name, span.start, span.end, span.status,
                  span.attrs)
        for sink in self.sinks:
            sink.emit(record)

    # -- exports ------------------------------------------------------

    def export_records(self) -> list[dict]:
        """All collected records plus the metrics snapshot."""
        return self.collector.records + self.metrics.snapshot()

    def export_jsonl(self, path: Optional[str] = None) -> str:
        """Serialize the stream as JSON Lines (deterministic bytes).
        Writes to ``path`` when given; always returns the text."""
        text = "\n".join(to_jsonl_lines(self.export_records())) + "\n"
        if path is not None:
            with open(path, "w") as fh:
                fh.write(text)
        return text

    def export_chrome(self, path: Optional[str] = None) -> dict:
        """Serialize spans/events as a chrome://tracing JSON object."""
        trace = to_chrome_trace(self.collector.records)
        if path is not None:
            import json

            with open(path, "w") as fh:
                json.dump(trace, fh, sort_keys=True)
        return trace
