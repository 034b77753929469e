"""Simulation-safety rules.

These target the bug shapes that have historically cost the most
debugging time in generator-based discrete-event code: validation that
vanishes under ``python -O``, and process generators that were never
handed to the kernel.  Shared mutable defaults and bare ``except:``
are ruff's job (B006, E722).
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.findings import FileContext, Finding, Rule, rule


@rule
class AssertControlRule(Rule):
    """Ban ``assert`` for validation in control-plane modules.

    Failure scenario: saga-step preconditions written as ``assert``
    disappear under ``python -O``, so a malformed attach that the
    development run rejects is *accepted* in an optimized run — the two
    builds take different control-plane paths and recovery invariants
    silently stop being checked.  Raise a typed error
    (``SagaError``, ``SteeringError``, ``ValueError``) instead; tests
    are exempt.
    """

    id = "assert-control"
    summary = "no assert for control-plane validation; raise typed errors"
    family = "safety"
    node_types = (ast.Assert,)

    _CONTROL_PREFIXES = ("src/repro/core", "src/repro/cloud")

    def applies_to(self, path: str) -> bool:
        return (
            path.startswith(self._CONTROL_PREFIXES)
            or "tests/lint/fixtures" in path
        )

    def check(self, node: ast.AST, ctx: FileContext) -> Iterator[Finding]:
        assert isinstance(node, ast.Assert)
        yield self.finding(
            ctx, node,
            "assert is stripped under python -O; raise a typed error "
            "for control-plane validation",
        )


def _generator_defs(tree: ast.Module) -> set[str]:
    """Names of functions/methods whose *own* body contains a yield."""
    names: set[str] = set()

    class Collector(ast.NodeVisitor):
        def visit_FunctionDef(self, fn: ast.FunctionDef) -> None:
            self._handle(fn)

        def visit_AsyncFunctionDef(self, fn: ast.AsyncFunctionDef) -> None:
            self._handle(fn)

        def _handle(self, fn: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
            # Strip nested defs before scanning for yields so a closure
            # containing a generator doesn't mark its parent.
            body_yields = False
            stack: list[ast.AST] = list(fn.body)
            while stack:
                node = stack.pop()
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                    continue
                if isinstance(node, (ast.Yield, ast.YieldFrom)):
                    body_yields = True
                    break
                stack.extend(ast.iter_child_nodes(node))
            if body_yields:
                names.add(fn.name)
            self.generic_visit(fn)

    Collector().visit(tree)
    return names


@rule
class UnkernelledProcessRule(Rule):
    """Ban calling a process generator as a bare statement.

    Failure scenario: ``self._run_relay(conn)`` on its own line — the
    call builds a generator object and throws it away; *nothing runs*,
    no error is raised, and the relay silently never starts.  The
    symptom (stalled I/O three layers up) appears long after the bug.
    Generators must be driven by the kernel
    (``sim.process(self._run_relay(conn))``) or delegated to with
    ``yield from``.
    """

    id = "unkernelled-process"
    summary = "generator called as a statement does nothing; wrap in sim.process()"
    family = "safety"
    node_types = (ast.Expr,)

    def check(self, node: ast.AST, ctx: FileContext) -> Iterator[Finding]:
        assert isinstance(node, ast.Expr)
        call = node.value
        if not isinstance(call, ast.Call):
            return
        func = call.func
        name = None
        if isinstance(func, ast.Name):
            name = func.id
        elif isinstance(func, ast.Attribute):
            name = func.attr
            # `sim.process(gen())` / `self.sim.process(gen())` is the
            # kernel spawning the generator — the correct idiom, even
            # when a local generator happens to be named `process`.
            base = func.value
            if (isinstance(base, ast.Name) and base.id == "sim") or (
                isinstance(base, ast.Attribute) and base.attr == "sim"
            ):
                return
        if name in ctx.generator_defs:
            yield self.finding(
                ctx, node,
                f"{name}() is a generator: calling it as a statement runs "
                "nothing; wrap it in sim.process(...) or use 'yield from'",
            )


GENERATOR_DEF_COLLECTOR = _generator_defs
