"""Meta-test: the repo's own source tree must satisfy stormlint.

This is the same gate CI's static-analysis job applies — any new
determinism or simulation-safety hazard in ``src/`` fails here first,
with the offending location in the assertion message.  The tree is
linted once; every check reads that one result.
"""

from __future__ import annotations

import ast
import os
import pathlib

import pytest

from repro.lint.engine import run_lint

REPO_ROOT = os.path.abspath(
    os.path.join(os.path.dirname(__file__), os.pardir, os.pardir)
)


@pytest.fixture(scope="module")
def result():
    return run_lint(["src", "tests"], root=REPO_ROOT)


def test_source_tree_clean(result):
    assert not result.errors, result.errors
    locations = [f"{f.location()} {f.rule_id}: {f.message}" for f in result.new]
    assert not locations, "\n".join(locations)
    assert result.files_checked > 100  # the whole tree was really walked


def test_no_stale_suppressions(result):
    """Every ``# stormlint: ignore[...]`` must still shield a live
    finding; delete the dead ids by hand."""
    stale = [
        f"{s.path}:{s.line} dead ids {list(s.dead_ids)}"
        for s in result.stale_suppressions
    ]
    assert not stale, "stale suppressions:\n" + "\n".join(stale)


def test_every_src_function_is_named_somewhere():
    """Dead-code census: a function defined under ``src/`` whose name
    appears nowhere else (as a name, attribute, string, import or
    keyword) under src/, tests/, examples/ or benchmarks/ has no caller.
    Dunders and ``ast.NodeVisitor`` ``visit_*`` methods are exempt."""
    root = pathlib.Path(REPO_ROOT)
    trees = {
        path: ast.parse(path.read_text(encoding="utf-8"))
        for top in ("src", "tests", "examples", "benchmarks")
        for path in sorted((root / top).rglob("*.py"))
    }
    named: set[str] = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                named.add(node.value)
            elif isinstance(node, ast.alias):
                named.update((node.name.rpartition(".")[2], node.asname or ""))
            elif isinstance(node, ast.keyword) and node.arg:
                named.add(node.arg)
    visitors: set[ast.AST] = set()
    dead: list[str] = []
    for path, tree in trees.items():
        if not path.is_relative_to(root / "src"):
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and any(
                "NodeVisitor" in ast.unparse(base) for base in node.bases
            ):
                visitors.update(
                    fn for fn in node.body
                    if getattr(fn, "name", "").startswith("visit_")
                )
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = node.name
                exempt = name.startswith("__") and name.endswith("__")
                if not exempt and node not in visitors and name not in named:
                    dead.append(f"{path.relative_to(root)}:{node.lineno} {name}")
    assert not dead, "functions nothing names:\n" + "\n".join(dead)


def test_no_process_global_counter():
    """Per-run state census: an ``itertools.count`` at module or class
    level, or a class attribute bumped through the class name, outlives
    the run that advanced it, so the next run in the same process starts
    from another run's history.  Ids come from the run's ``Simulator``
    when owners look them up across each other, else from the owner."""
    root = pathlib.Path(REPO_ROOT)
    found: list[str] = []
    for path in sorted((root / "src").rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        classes = [node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)]
        class_names = {node.name for node in classes}
        shared = [stmt for body in [tree.body] + [c.body for c in classes] for stmt in body]
        for stmt in shared:
            value = getattr(stmt, "value", None)
            if (
                isinstance(stmt, (ast.Assign, ast.AnnAssign))
                and isinstance(value, ast.Call)
                and ast.unparse(value.func) in ("itertools.count", "count")
            ):
                found.append(f"{path.relative_to(root)}:{stmt.lineno} {ast.unparse(stmt)}")
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.AugAssign)
                and isinstance(node.target, ast.Attribute)
                and isinstance(node.target.value, ast.Name)
                and node.target.value.id in class_names
            ):
                found.append(f"{path.relative_to(root)}:{node.lineno} {ast.unparse(node)}")
    assert not found, "process-global counters:\n" + "\n".join(found)
