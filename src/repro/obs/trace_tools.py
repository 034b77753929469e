"""Post-processing helpers for exported trace records.

These operate on the record dicts ``bus.records`` and
``bus.export_records()`` return (see :mod:`repro.obs.bus`), turning
one request's trace into the per-hop latency breakdown the paper's
evaluation figures are built from:
``examples/chain_failover.py`` uses them to print where each
microsecond of a write went (initiator → gateway → relay → service →
target and back).
"""

from __future__ import annotations

from typing import Optional


def spans_of(records: list[dict], trace_id: int) -> list[dict]:
    """Span records of one trace, in start-time order."""
    spans = [r for r in records if r["type"] == "span" and r["trace"] == trace_id]
    spans.sort(key=lambda r: (r["start"], r["seq"]))
    return spans


def events_of(
    records: list[dict], trace_id: Optional[int] = None, kind: str = ""
) -> list[dict]:
    """Point events of one trace, or of every trace when ``trace_id``
    is None (optionally filtered by kind prefix), in emission order."""
    return [
        r
        for r in records
        if r["type"] == "event"
        and (trace_id is None or r["trace"] == trace_id)
        and r["kind"].startswith(kind)
    ]


def first_trace(records: list[dict], root_prefix: str = "") -> Optional[int]:
    """Trace id of the earliest trace whose root span name starts with
    ``root_prefix`` (any root when empty); None when no trace matches."""
    roots = [
        r
        for r in records
        if r["type"] == "span"
        and r["parent"] is None
        and r["name"].startswith(root_prefix)
    ]
    if not roots:
        return None
    return min(roots, key=lambda r: (r["start"], r["seq"]))["trace"]


def trace_rows(records: list[dict], trace_id: int) -> list[dict]:
    """One request's timeline: its spans and per-hop events merged and
    sorted by time.  Each row has ``ts`` (absolute), ``offset`` (since
    trace start), ``label``, ``kind`` (span/hop/event), ``detail``."""
    rows = []
    for span in spans_of(records, trace_id):
        rows.append(
            {
                "ts": span["start"],
                "seq": span["seq"],
                "kind": "span",
                "label": span["name"],
                "detail": f"dur={1e6 * (span['end'] - span['start']):.1f}us "
                f"status={span['status']}",
            }
        )
    for event in events_of(records, trace_id):
        if event["kind"] == "net.hop":
            detail = f"bytes={event['attrs'].get('bytes', '?')}"
            label = event["target"]
            kind = "hop"
        else:
            detail = " ".join(f"{k}={v}" for k, v in sorted(event["attrs"].items()))
            label = f"{event['kind']} {event['target']}".strip()
            kind = "event"
        rows.append(
            {"ts": event["ts"], "seq": event["seq"], "kind": kind,
             "label": label, "detail": detail}
        )
    rows.sort(key=lambda r: (r["ts"], r["seq"]))
    if rows:
        start = rows[0]["ts"]
        for row in rows:
            row["offset"] = row["ts"] - start
    return rows


def format_hop_table(rows: list[dict]) -> str:
    """Render trace rows as an aligned per-hop latency table with the
    delta from the previous row — the 'where did the time go' view."""
    lines = [f"{'t(ms)':>10}  {'+step(us)':>10}  {'kind':<5}  where"]
    prev = None
    for row in rows:
        step = 0.0 if prev is None else (row["ts"] - prev) * 1e6
        prev = row["ts"]
        lines.append(
            f"{row['ts'] * 1e3:>10.4f}  {step:>10.1f}  {row['kind']:<5}  "
            f"{row['label']} {row['detail']}".rstrip()
        )
    return "\n".join(lines)


def format_timeline(events: list[dict]) -> str:
    """Render point events (as ``events_of`` returns them) one per
    line: timestamp, kind, target and attrs — the fault/recovery
    timeline view."""
    lines = []
    for event in events:
        extras = " ".join(f"{k}={v}" for k, v in event["attrs"].items())
        lines.append(
            f"[{event['ts']:10.6f}s] {event['kind']:<22} {event['target']} {extras}".rstrip()
        )
    return "\n".join(lines)
