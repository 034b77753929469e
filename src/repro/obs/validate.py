"""Schema validation for exported trace streams.

The JSONL export is the interchange artifact (CI uploads it, the
chrome converter reads the same records), so its shape is checked
strictly: every line must be a JSON object with a known ``type`` and
exactly the required keys for that type, with the right value types.
``python -m repro.obs validate out.jsonl`` runs this from the CI
workflow.

``--names`` additionally checks every span name, event kind, and
metric name against the known instrumentation vocabulary
(:data:`KNOWN_NAME_PREFIXES`) — opt-in, because tenant services and
examples are free to invent names; the chaos CI jobs use it to catch
vocabulary typos in the platform's own emitters (``ha.*`` failover
records, ``saga.takeover`` spans, ``watchdog.*`` healing events...).
"""

from __future__ import annotations

import json
from typing import Any, Optional

_NUMBER = (int, float)

#: required keys and their accepted value types, per record type.
#: ``None`` in a type tuple means JSON null is accepted.  ``seq`` and
#: the trace/span ids come from integer counters, so a float there means
#: two fields of a record layout were swapped.
SCHEMAS: dict = {
    "span": {
        "seq": (int,),
        "ts": _NUMBER,
        "trace": (int,),
        "span": (int,),
        "parent": (int, type(None)),
        "name": (str,),
        "start": _NUMBER,
        "end": _NUMBER,
        "status": (str,),
        "attrs": (dict,),
    },
    "event": {
        "seq": (int,),
        "ts": _NUMBER,
        "kind": (str,),
        "target": (str,),
        "trace": (int, type(None)),
        "span": (int, type(None)),
        "attrs": (dict,),
    },
    "counter": {"name": (str,), "scope": (str,), "value": _NUMBER},
    "gauge": {"name": (str,), "scope": (str,), "value": _NUMBER},
    "histogram": {
        "name": (str,),
        "scope": (str,),
        "count": (int,),
        "sum": _NUMBER,
        "min": _NUMBER,
        "max": _NUMBER,
    },
}


#: the platform's instrumentation vocabulary, by record type.  Span
#: names / event kinds / metric names must start with one of these in
#: ``--names`` strict mode.  Keep sorted; a new subsystem registers
#: its prefix here when its traces should pass chaos CI.
KNOWN_NAME_PREFIXES: dict = {
    "span": (
        "iscsi.",
        "relay.",  # relay.fwd / relay.passive / relay.active
        "saga.",  # saga.<op>, saga.takeover
        "service.",
        "target.",
    ),
    "event": (
        "fault.",
        "flow.",
        "ha.",  # ha.elect / ha.leader / ha.catch-up / ha.takeover ...
        "integrity.",  # integrity.tamper / .replay / .trip / .retry ...
        "iscsi.",
        "monitor.",  # monitor.alert
        "net.",
        "nvm.",
        "pool.",
        "reconcile.",
        "recover.",
        "saga.",
        "switch.",
        "tamper.",  # adversarial ground truth (fault injector)
        "target.",
        "watchdog.",
    ),
    # counters, gauges and histograms share one metric namespace
    "metric": (
        "disk.",
        "ha.",  # ha.term / ha.leader / ha.quorum / ha.elections / ha.ship.*
        "integrity.",  # integrity.detections / integrity.<kind> / .retries
        "link.",
        "nat.",
        "reconcile.",
        "relay.",
        "svc.",
        "switch.",
        "target.",
        "watchdog.",
    ),
}


def _name_of(kind: str, record: dict) -> Optional[tuple[str, Any]]:
    """(vocabulary family, name) checked in --names mode, or None."""
    if kind == "span":
        return "span", record.get("name")
    if kind == "event":
        return "event", record.get("kind")
    if kind in ("counter", "gauge", "histogram"):
        return "metric", record.get("name")
    return None


def validate_record(record: Any, line_no: int = 0, names: bool = False) -> list[str]:
    """Problems with one decoded record ([] when valid)."""
    where = f"line {line_no}: " if line_no else ""
    if not isinstance(record, dict):
        return [f"{where}not a JSON object"]
    kind = record.get("type")
    schema = SCHEMAS.get(kind)
    if schema is None:
        return [f"{where}unknown record type {kind!r}"]
    problems: list[str] = []
    for key, types in schema.items():
        if key not in record:
            problems.append(f"{where}{kind} record missing key {key!r}")
        elif not isinstance(record[key], types) or isinstance(record[key], bool):
            problems.append(
                f"{where}{kind} record key {key!r} has bad type "
                f"{type(record[key]).__name__}"
            )
    extra = set(record) - set(schema) - {"type"}
    if extra:
        problems.append(f"{where}{kind} record has unknown keys {sorted(extra)}")
    if names and not problems:
        family_name = _name_of(kind, record)
        if family_name is not None:
            family, name = family_name
            if isinstance(name, str) and not name.startswith(
                KNOWN_NAME_PREFIXES[family]
            ):
                problems.append(
                    f"{where}{kind} name {name!r} outside the known "
                    f"{family} vocabulary"
                )
    return problems


def validate_lines(text: str, names: bool = False) -> list[str]:
    """Problems across a whole JSONL document ([] when valid)."""
    problems: list[str] = []
    last_seq = 0
    for line_no, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            problems.append(f"line {line_no}: invalid JSON ({exc.msg})")
            continue
        problems.extend(validate_record(record, line_no, names=names))
        seq = record.get("seq") if isinstance(record, dict) else None
        if isinstance(seq, int):
            if seq <= last_seq:
                problems.append(f"line {line_no}: seq {seq} not increasing")
            last_seq = seq
    return problems


def validate_file(path: str, names: bool = False) -> list[str]:
    with open(path) as fh:
        return validate_lines(fh.read(), names=names)


def main(argv: Optional[list[str]] = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(prog="repro.obs validate")
    parser.add_argument("path", help="JSONL trace export to check")
    parser.add_argument(
        "--names",
        action="store_true",
        help="also check names against the known instrumentation vocabulary",
    )
    args = parser.parse_args(argv)
    problems = validate_file(args.path, names=args.names)
    if problems:
        for problem in problems:
            print(f"{args.path}: {problem}")
        return 1
    with open(args.path) as fh:
        count = sum(1 for line in fh if line.strip())
    print(f"{args.path}: {count} records, schema OK")
    return 0
