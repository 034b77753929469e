"""Record layouts, pluggable sinks, and the export serializers.

The bus emits each record as one flat tuple whose first item is a tag
naming its layout; this module owns the layouts and the one function,
:func:`record_dict`, that turns a stored tuple back into the record
dict of the schema in :mod:`repro.obs.bus`:

- ``("span", seq, ts, trace, span, parent, name, start, end, status,
  attrs)`` — the fields of :data:`SPAN_FIELDS`, in order;
- ``("event", seq, ts, kind, target, trace, span, attrs)`` — the
  fields of :data:`EVENT_FIELDS`, in order;
- ``("hop", seq, ts, node, trace, span, size)`` — one ``net.hop``
  event, which reads back with ``kind="net.hop"``, ``target=node`` and
  ``attrs={"bytes": size}``.  Hops are most of a traced run's records,
  so they keep their byte count inline instead of a kwargs dict.

Tuples are what sinks keep, because a retained tuple costs about a
third of the dict it stands for; dicts are built only when someone
reads.  A sink is anything with an ``emit(record)`` method that takes
such a tuple; a custom sink that wants the dict calls
:func:`record_dict` on it.  Three are provided:

- :class:`CollectorSink` — unbounded in-memory list (the bus default;
  exports read from it);
- :class:`RingSink` — bounded ring for long chaos runs where only the
  recent window matters;
- :class:`JsonlSink` — streams each record to an open file as one JSON
  line (tail-able mid-run).

Every ``records`` read builds a fresh list of dicts, so a caller that
reads inside a loop hoists the read.  The serializers are
deterministic: ``sort_keys`` + fixed separators, so identical runs
produce byte-identical exports.
"""

from __future__ import annotations

import json
from collections import deque
from typing import Any, Callable, Optional, Protocol, TextIO

#: a stored record: a layout tag followed by that layout's values
Record = tuple[Any, ...]

#: dict keys of the span and event layouts, in tuple order; the tag in
#: position 0 is the record's ``type``
SPAN_FIELDS = ("type", "seq", "ts", "trace", "span", "parent", "name",
               "start", "end", "status", "attrs")
EVENT_FIELDS = ("type", "seq", "ts", "kind", "target", "trace", "span", "attrs")
_FIELDS = {"span": SPAN_FIELDS, "event": EVENT_FIELDS}


def record_dict(record: Record) -> dict:
    """The schema dict a stored record tuple stands for."""
    if record[0] == "hop":
        _, seq, ts, node, trace, span, size = record
        return {"type": "event", "seq": seq, "ts": ts, "kind": "net.hop",
                "target": node, "trace": trace, "span": span,
                "attrs": {"bytes": size}}
    return dict(zip(_FIELDS[record[0]], record))


class Sink(Protocol):
    """Anything the bus can emit record tuples into."""

    def emit(self, record: Record) -> None: ...


def record_to_json(record: dict) -> str:
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


def to_jsonl_lines(records: list[dict]) -> list[str]:
    return [record_to_json(r) for r in records]


def to_chrome_trace(records: list[dict]) -> dict:
    """Render span/event records as a chrome://tracing object.

    Spans become complete (``"X"``) events, point events become
    instants (``"i"``); traces map to chrome *threads* so one request's
    tree renders as one row.  Times are microseconds, as the format
    requires.
    """
    trace_events: list[dict] = []
    for record in records:
        if record["type"] == "span":
            trace_events.append(
                {
                    "name": record["name"],
                    "cat": "span",
                    "ph": "X",
                    "ts": record["start"] * 1e6,
                    "dur": (record["end"] - record["start"]) * 1e6,
                    "pid": 1,
                    "tid": record["trace"],
                    "args": dict(record["attrs"], status=record["status"]),
                }
            )
        elif record["type"] == "event":
            trace_events.append(
                {
                    "name": record["kind"],
                    "cat": "event",
                    "ph": "i",
                    "s": "t",
                    "ts": record["ts"] * 1e6,
                    "pid": 1,
                    "tid": record["trace"] if record["trace"] is not None else 0,
                    "args": dict(record["attrs"], target=record["target"]),
                }
            )
    return {"traceEvents": trace_events, "displayTimeUnit": "ms"}


class CollectorSink:
    """Keeps every record, in emission order."""

    #: the store's own append, bound once: no Python frame per record
    emit: Callable[[Record], None]

    def __init__(self) -> None:
        self._records: list[Record] = []
        self.emit = self._records.append

    @property
    def records(self) -> list[dict]:
        return [record_dict(r) for r in self._records]


class RingSink:
    """Keeps only the most recent ``capacity`` records."""

    emit: Callable[[Record], None]

    def __init__(self, capacity: int = 4096):
        self.capacity = capacity
        self._ring: deque[Record] = deque(maxlen=capacity)
        self.emit = self._ring.append

    @property
    def records(self) -> list[dict]:
        return [record_dict(r) for r in self._ring]

    def __len__(self) -> int:
        return len(self._ring)


class JsonlSink:
    """Streams records to a file handle as they are emitted."""

    def __init__(self, path: str):
        self.path = path
        self._fh: Optional[TextIO] = open(path, "w")
        self.lines_written = 0

    def emit(self, record: Record) -> None:
        if self._fh is not None:
            self._fh.write(record_to_json(record_dict(record)) + "\n")
            self.lines_written += 1

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None
