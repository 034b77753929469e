"""Repo-hygiene rules: conventions that keep components observable."""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.findings import FileContext, Finding, Rule, rule


@rule
class DirectEventLogRule(Rule):
    """Ban direct ``EventLog(...)`` construction outside ``repro.obs``.

    Failure scenario: a component builds its own ``EventLog()``.  The
    log then records events nowhere else can see — the observability
    bus never hears about them, traces lose their fault timeline, and
    the JSONL/chrome exports silently under-report.  Production code
    must call :func:`repro.obs.make_event_log` (optionally passing the
    bus) so every event log is bus-aware by construction.  The obs
    package itself is exempt: it is where the class lives.
    """

    id = "direct-eventlog"
    summary = "construct event logs via repro.obs.make_event_log, not EventLog()"
    family = "hygiene"
    node_types = (ast.Call,)

    def applies_to(self, path: str) -> bool:
        if path.startswith("src/repro/obs"):
            return False
        return path.startswith("src/repro") or "tests/lint/fixtures" in path

    def check(self, node: ast.AST, ctx: FileContext) -> Iterator[Finding]:
        assert isinstance(node, ast.Call)
        func = node.func
        name = ""
        if isinstance(func, ast.Name):
            name = func.id
        elif isinstance(func, ast.Attribute):
            name = func.attr
        if name == "EventLog":
            yield self.finding(
                ctx, node,
                "direct EventLog() construction outside repro.obs; "
                "use repro.obs.make_event_log(bus) so events reach the bus",
            )
