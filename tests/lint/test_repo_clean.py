"""The repo's own source tree must pass every census.

``src/repro`` is parsed once; the stormlint census, the dead-function
census, the per-run-state census, the control-clock census and the
retired-switch census all read that one parse, and any
new determinism, simulation-safety or contract hazard fails here with
its location in the assertion message.
"""

from __future__ import annotations

import ast
import pathlib

import pytest

from tests.lint.census import CONTROL_CLOCKS, Module, check, control_clocks, retired_switches

ROOT = pathlib.Path(__file__).resolve().parents[2]


@pytest.fixture(scope="module")
def src():
    """Every module under ``src/repro``, parsed once."""
    return [
        Module(path.relative_to(ROOT).as_posix(), path.read_text(encoding="utf-8"))
        for path in sorted((ROOT / "src" / "repro").rglob("*.py"))
    ]


@pytest.fixture(scope="module")
def census(src):
    """All findings and all stale suppression ids on the tree."""
    results = [check(module) for module in src]
    return (
        [f for findings, _ in results for f in findings],
        [s for _, stale in results for s in stale],
    )


def test_source_tree_clean(src, census):
    findings, _ = census
    lines = {module.path: module.source.splitlines() for module in src}
    new = [
        f"{f.path}:{f.line} {f.rule_id}: {f.message}\n    {lines[f.path][f.line - 1].strip()}"
        for f in findings
        if not f.suppressed
    ]
    assert not new, "\n".join(new)
    assert len(src) > 90  # the whole tree was really walked


def test_no_stale_suppressions(census):
    """Every ``# stormlint: ignore[...]`` id must still shield a live
    finding of a census rule; delete the dead ids by hand."""
    _, stale = census
    assert not stale, "stale suppressions:\n" + "\n".join(
        f"{path}:{line} [{rule_id}]" for path, line, rule_id in stale
    )


def _named(nodes) -> set[str]:
    named: set[str] = set()
    for node in nodes:
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
    return named


def test_every_src_function_is_named_somewhere(src):
    """Dead-code census: a function defined under ``src/`` whose name
    appears nowhere else (as a name, attribute, string, import or
    keyword) under src/, tests/, examples/ or benchmarks/ has no caller.
    Dunders are exempt."""
    kinds = (ast.Name, ast.Attribute, ast.Constant, ast.alias, ast.keyword)
    named = _named(node for module in src for node in module.of(*kinds))
    for top in ("tests", "examples", "benchmarks"):
        for path in sorted((ROOT / top).rglob("*.py")):
            named |= _named(ast.walk(ast.parse(path.read_text(encoding="utf-8"))))
    dead = [
        f"{module.path}:{fn.lineno} {fn.name}"
        for module in src
        for fn in module.of(ast.FunctionDef, ast.AsyncFunctionDef)
        if fn.name not in named and not (fn.name.startswith("__") and fn.name.endswith("__"))
    ]
    assert not dead, "functions nothing names:\n" + "\n".join(dead)


def test_no_process_global_counter(src):
    """Per-run state census: an ``itertools.count`` at module or class
    level, or a class attribute bumped through the class name, outlives
    the run that advanced it, so the next run in the same process starts
    from another run's history.  Ids come from the run's ``Simulator``
    when owners look them up across each other, else from the owner."""
    found: list[str] = []
    for module in src:
        classes = module.of(ast.ClassDef)
        class_names = {node.name for node in classes}
        shared = [stmt for body in [module.tree.body] + [c.body for c in classes] for stmt in body]
        for stmt in shared:
            value = getattr(stmt, "value", None)
            if (
                isinstance(stmt, (ast.Assign, ast.AnnAssign))
                and isinstance(value, ast.Call)
                and ast.unparse(value.func) in ("itertools.count", "count")
            ):
                found.append(f"{module.path}:{stmt.lineno} {ast.unparse(stmt)}")
        for node in module.of(ast.AugAssign):
            if (
                isinstance(node.target, ast.Attribute)
                and isinstance(node.target.value, ast.Name)
                and node.target.value.id in class_names
            ):
                found.append(f"{module.path}:{node.lineno} {ast.unparse(node)}")
    assert not found, "process-global counters:\n" + "\n".join(found)


def test_one_control_clock(src):
    """Control-clock census: in ``repro/core`` only the HA replicas'
    heartbeat loop and the one chain control loop keep a periodic
    clock; anything else periodic is a policy in ``Reconciler.tick``."""
    clocks = sorted(name for module in src for name in control_clocks(module))
    assert clocks == sorted(CONTROL_CLOCKS)


def test_no_retired_recovery_switch(src):
    """Retired-switch census: reliable TCP, iSCSI re-login and detach
    eviction are always on, so no module reads the ``CloudParams``
    fields that once turned them off or passes ``reliable=`` /
    ``recover=`` to a socket, target, initiator or session."""
    found = [
        f"{module.path}:{line} {message}"
        for module in src
        for line, message in retired_switches(module)
    ]
    assert not found, "retired recovery switches:\n" + "\n".join(found)
