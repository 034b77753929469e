"""Findings, rule metadata, and the rule registry.

A :class:`Rule` is a small object that inspects AST nodes (or, for
whole-program rules, the linked call graph) and emits
:class:`Finding`\\ s.
Rules self-register via the :func:`rule` decorator so adding one is a
single class definition — the engine, CLI, and docs enumeration all
discover it through :func:`all_rules`.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.lint.callgraph import Program


@dataclass(frozen=True)
class Finding:
    """One violation at one location."""

    rule_id: str
    path: str
    line: int
    col: int
    message: str
    snippet: str = ""
    suppressed: bool = False
    #: whole-program rules attach the call chain (root → ... → leaf
    #: qualnames) that produced the finding; the text output prints it
    chain: tuple[str, ...] = ()

    def location(self) -> str:
        return f"{self.path}:{self.line}:{self.col}"


@dataclass
class FileContext:
    """Per-file state shared by every rule during one AST walk."""

    path: str            # repo-relative posix path
    source: str
    lines: list[str]
    tree: ast.Module
    #: names of functions/methods defined in this module whose own body
    #: contains a ``yield`` (i.e. kernel-process generators)
    generator_defs: set[str] = field(default_factory=set)

    def line_text(self, lineno: int) -> str:
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1]
        return ""


class Rule:
    """Base class for all stormlint rules.

    Subclasses set the class attributes and implement either
    :meth:`check` (AST rules, called for every node whose type is in
    ``node_types``) or :meth:`check_program` (whole-program rules,
    called once per lint run).  The class docstring of each concrete rule documents
    the failure scenario the rule prevents; ``python -m repro.lint
    --list-rules`` prints them.
    """

    #: stable kebab-case identifier used in suppressions and --select
    id: str = ""
    #: one-line summary shown in --list-rules
    summary: str = ""
    #: AST node classes this rule wants to see (empty = whole-program
    #: rule)
    node_types: tuple[type, ...] = ()
    #: 'determinism' | 'safety' | 'flow' | 'contract'
    family: str = ""
    #: whole-program rules run once against the linked :class:`Program`
    #: (call graph + effect fixpoint) instead of per node
    needs_program: bool = False
    #: per-file rule ids whose inline suppression also silences this
    #: rule at the same line (the leaf of a flow finding is usually the
    #: very line the per-file sibling rule flags)
    suppression_aliases: tuple[str, ...] = ()

    def applies_to(self, path: str) -> bool:
        """Whether this rule runs on the file at repo-relative ``path``.

        The default scopes every rule to the simulation source tree;
        rules override this to narrow their reach (control-plane only,
        or everything but the obs package).  Fixture files under ``tests/lint/fixtures``
        are always linted so rule tests can use real files.
        """
        return path.startswith("src/repro") or "tests/lint/fixtures" in path

    def check(self, node: ast.AST, ctx: FileContext) -> Iterator[Finding]:
        """Yield findings for ``node``.  AST rules override this."""
        return iter(())

    def check_program(self, program: "Program") -> Iterator[Finding]:
        """Yield whole-program findings.  Rules with
        ``needs_program = True`` override this."""
        return iter(())

    # -- helpers shared by concrete rules -----------------------------

    def finding(
        self, ctx: FileContext, node: ast.AST, message: str
    ) -> Finding:
        lineno = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        return Finding(
            rule_id=self.id,
            path=ctx.path,
            line=lineno,
            col=col + 1,
            message=message,
            snippet=ctx.line_text(lineno).strip(),
        )


_REGISTRY: dict[str, type[Rule]] = {}


def rule(cls: type[Rule]) -> type[Rule]:
    """Class decorator: register a rule under its ``id``."""
    if not cls.id:
        raise ValueError(f"rule class {cls.__name__} has no id")
    if cls.id in _REGISTRY:
        raise ValueError(f"duplicate rule id {cls.id!r}")
    _REGISTRY[cls.id] = cls
    return cls


def all_rules() -> dict[str, type[Rule]]:
    """The full registry, keyed by rule id (import-order stable)."""
    # Importing the rule modules populates the registry lazily so that
    # `from repro.lint.findings import ...` alone has no side effects.
    from repro.lint import (  # noqa: F401
        rules_contracts,
        rules_determinism,
        rules_flow,
        rules_safety,
    )

    return dict(_REGISTRY)


def instantiate(selected: Sequence[str] | None = None) -> list[Rule]:
    """Build rule instances, optionally restricted to ``selected`` ids."""
    registry = all_rules()
    if selected:
        unknown = [s for s in selected if s not in registry]
        if unknown:
            raise KeyError(f"unknown rule id(s): {', '.join(sorted(unknown))}")
        classes: Iterable[type[Rule]] = (registry[s] for s in selected)
    else:
        classes = registry.values()
    return [cls() for cls in classes]
