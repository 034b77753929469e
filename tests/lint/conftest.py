"""Helpers shared by the stormlint census tests."""

from __future__ import annotations

import textwrap

import pytest

from tests.lint.census import Module, check


@pytest.fixture
def lint():
    """Run the census on a source snippet as if it lived at ``path``;
    returns all findings, suppressed ones included and marked."""

    def _lint(source: str, path: str = "src/repro/_fixture.py"):
        findings, _stale = check(Module(path, textwrap.dedent(source)))
        return findings

    return _lint


def hits(findings, rule_id):
    """The non-suppressed findings for one rule."""
    return [f for f in findings if f.rule_id == rule_id and not f.suppressed]


def suppressed(findings, rule_id):
    return [f for f in findings if f.rule_id == rule_id and f.suppressed]
