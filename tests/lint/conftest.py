"""Helpers shared by the stormlint tests."""

from __future__ import annotations

import textwrap

import pytest

from repro.lint.engine import lint_file_source, run_lint
from repro.lint.findings import instantiate


def write_tree(root, files):
    """Materialize ``{relpath: source}`` under ``root`` (dedented)."""
    for rel, src in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(src))
    return root


@pytest.fixture
def run_tree(tmp_path):
    """Write a fixture tree into tmp_path and run the full linter on
    it.  Violation fixtures live here, not in the repo, so the
    repo-clean meta-test stays meaningful."""

    def _run(files, select=None, paths=("src",)):
        write_tree(tmp_path, files)
        return run_lint(list(paths), root=str(tmp_path), selected_rules=select)

    return _run


@pytest.fixture
def lint():
    """Lint a source snippet as if it lived at ``path``; returns all
    findings (suppressed ones included, flagged)."""

    def _lint(source: str, path: str = "src/repro/_fixture.py", select=None):
        rules = instantiate(select)
        return lint_file_source(textwrap.dedent(source), path, rules)

    return _lint


def hits(findings, rule_id):
    """The non-suppressed findings for one rule."""
    return [f for f in findings if f.rule_id == rule_id and not f.suppressed]


def suppressed(findings, rule_id):
    return [f for f in findings if f.rule_id == rule_id and f.suppressed]
