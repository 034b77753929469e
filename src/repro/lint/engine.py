"""The lint engine: discovery, one shared AST walk, the program pass.

Per file, the engine parses **once**; the tree feeds both the per-file
rules (dispatched by node type) and the
:class:`~repro.lint.callgraph.ModuleSummary` builder the whole-program
pass links (call graph, effect fixpoint, flow/contract rules).

Suppressions: ``# stormlint: ignore[rule-id]`` (comma-separate several
ids, or ``ignore[*]`` for all) suppresses findings on its own line —
or, when the comment stands alone on a line, on the following line.
Comments are found with :mod:`tokenize`, so the marker inside a string
literal is *not* a suppression.  Every run tracks which suppression
ids actually suppressed something; the stale ones surface in
:attr:`LintResult.stale_suppressions` and the text output lists them.
"""

from __future__ import annotations

import ast
import io
import os
import re
import tokenize
from dataclasses import dataclass, field, replace
from typing import Iterable, Sequence

from repro.lint.callgraph import ModuleSummary, Program, build_summary
from repro.lint.findings import FileContext, Finding, Rule, all_rules, instantiate
from repro.lint.rules_safety import GENERATOR_DEF_COLLECTOR

_SUPPRESS_RE = re.compile(r"#\s*stormlint:\s*ignore\[([^\]]*)\]")

#: directories never descended into during discovery
_SKIP_DIRS = {"__pycache__", ".git", ".hypothesis", ".benchmarks", ".pytest_cache"}

#: (comment line, shielded line, ids)
Suppression = tuple[int, int, list[str]]


def collect_suppressions(source: str) -> list[Suppression]:
    """Find every suppression *comment* (tokenize-accurate: markers
    inside string literals do not count).  A comment alone on its line
    shields the following line; an inline comment shields its own."""
    found: list[Suppression] = []
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for tok in tokens:
            if tok.type != tokenize.COMMENT:
                continue
            match = _SUPPRESS_RE.search(tok.string)
            if not match:
                continue
            ids = [p.strip() for p in match.group(1).split(",") if p.strip()]
            if not ids:
                continue
            row, col = tok.start
            own_line = tok.line[:col].strip() != ""
            found.append((row, row if own_line else row + 1, ids))
    except (tokenize.TokenError, IndentationError, SyntaxError):
        pass  # unparsable files already error out of the lint run
    return found


def _suppression_map(suppressions: Iterable[Suppression]) -> dict[int, set[str]]:
    by_line: dict[int, set[str]] = {}
    for _, target, ids in suppressions:
        by_line.setdefault(target, set()).update(ids)
    return by_line


def _matches(ids: set[str], rule_id: str, aliases: tuple[str, ...] = ()) -> bool:
    if "*" in ids or rule_id in ids:
        return True
    return any(alias in ids for alias in aliases)


@dataclass(frozen=True)
class StaleSuppression:
    """A suppression comment (or one id inside it) that no longer
    suppresses anything: delete the dead ids by hand."""

    path: str
    line: int
    #: the ids in this comment that matched no finding
    dead_ids: tuple[str, ...]


@dataclass
class LintResult:
    """Everything one lint run produced, pre-classified."""

    findings: list[Finding] = field(default_factory=list)
    #: files that failed to parse, as (path, message)
    errors: list[tuple[str, str]] = field(default_factory=list)
    files_checked: int = 0
    #: suppression comments that suppressed nothing this run
    stale_suppressions: list[StaleSuppression] = field(default_factory=list)

    @property
    def new(self) -> list[Finding]:
        return [f for f in self.findings if not f.suppressed]

    @property
    def suppressed(self) -> list[Finding]:
        return [f for f in self.findings if f.suppressed]

    @property
    def ok(self) -> bool:
        return not self.new and not self.errors


def discover(paths: Iterable[str], root: str) -> list[str]:
    """Expand files/directories into a sorted list of repo-relative
    ``.py`` paths (posix separators, stable across platforms)."""
    found: set[str] = set()
    for raw in paths:
        absolute = raw if os.path.isabs(raw) else os.path.join(root, raw)
        absolute = os.path.normpath(absolute)
        if os.path.isfile(absolute):
            if absolute.endswith(".py"):
                found.add(os.path.relpath(absolute, root))
        else:
            for dirpath, dirnames, filenames in os.walk(absolute):
                dirnames[:] = sorted(
                    d for d in dirnames if d not in _SKIP_DIRS
                )
                for name in filenames:
                    if name.endswith(".py"):
                        found.add(
                            os.path.relpath(os.path.join(dirpath, name), root)
                        )
    return sorted(p.replace(os.sep, "/") for p in found)


def _analyze_source(
    source: str, path: str, file_rules: Sequence[Rule]
) -> tuple[list[Finding], ModuleSummary, list[Suppression]]:
    """Parse once; run the per-file rules and build the module summary
    from the same tree.  Raises SyntaxError on bad source."""
    tree = ast.parse(source, filename=path)
    lines = source.splitlines()
    ctx = FileContext(
        path=path,
        source=source,
        lines=lines,
        tree=tree,
        generator_defs=GENERATOR_DEF_COLLECTOR(tree),
    )
    suppressions = collect_suppressions(source)
    by_line = _suppression_map(suppressions)

    applicable = [r for r in file_rules if r.node_types and r.applies_to(path)]
    dispatch: dict[type, list[Rule]] = {}
    for r in applicable:
        for node_type in r.node_types:
            dispatch.setdefault(node_type, []).append(r)

    findings: list[Finding] = []
    if dispatch:
        for node in ast.walk(tree):
            subscribed = dispatch.get(type(node))
            if not subscribed:
                continue
            for r in subscribed:
                for finding in r.check(node, ctx):
                    ids = by_line.get(finding.line, set())
                    findings.append(
                        replace(finding, suppressed=_matches(ids, finding.rule_id))
                    )
    findings.sort(key=lambda f: (f.line, f.col, f.rule_id))
    summary = build_summary(tree, path, lines)
    return findings, summary, suppressions


def lint_file_source(
    source: str, path: str, rules: Sequence[Rule]
) -> list[Finding]:
    """Lint one file's text.  ``path`` is the repo-relative posix path
    used for scoping.  Raises SyntaxError on bad source."""
    findings, _summary, _suppressions = _analyze_source(source, path, rules)
    return findings


def _alias_table(rules: Sequence[Rule]) -> dict[str, tuple[str, ...]]:
    return {r.id: r.suppression_aliases for r in rules if r.suppression_aliases}


def _run_program_rules(
    program: Program,
    program_rules: Sequence[Rule],
    suppressions_by_path: dict[str, list[Suppression]],
    lines_by_path: dict[str, list[str]],
) -> list[Finding]:
    """Run graph rules; suppress and backfill snippets."""
    out: list[Finding] = []
    for r in program_rules:
        for f in r.check_program(program):
            lines = lines_by_path.get(f.path, [])
            snippet = f.snippet
            if not snippet and 1 <= f.line <= len(lines):
                snippet = lines[f.line - 1].strip()
            by_line = _suppression_map(suppressions_by_path.get(f.path, []))
            ids = by_line.get(f.line, set())
            aliases = _ALIASES.get(f.rule_id, ())
            out.append(
                replace(
                    f, snippet=snippet, suppressed=_matches(ids, f.rule_id, aliases)
                )
            )
    return out


#: rule id -> per-file sibling ids whose suppression also applies;
#: resolved lazily because the registry populates on rule import
_ALIASES: dict[str, tuple[str, ...]] = {}


def _stale_suppressions(
    suppressions_by_path: dict[str, list[Suppression]],
    findings: Sequence[Finding],
    known_ids: set[str],
) -> list[StaleSuppression]:
    """Suppression ids that matched no finding this run.

    An id is *used* when some finding sits on the shielded line and the
    id names its rule (or a flow alias of it, or ``*``).  Unknown ids
    are stale by definition — they can never match.
    """
    by_site: dict[tuple[str, int], list[Finding]] = {}
    for f in findings:
        by_site.setdefault((f.path, f.line), []).append(f)
    reverse_aliases: dict[str, list[str]] = {}
    for rule_id, aliases in _ALIASES.items():
        for alias in aliases:
            reverse_aliases.setdefault(alias, []).append(rule_id)

    stale: list[StaleSuppression] = []
    for path in sorted(suppressions_by_path):
        for line, target, ids in suppressions_by_path[path]:
            at_line = by_site.get((path, target), [])
            dead: list[str] = []
            for sid in ids:
                if sid == "*":
                    if at_line:
                        continue
                elif sid in known_ids:
                    covered = {sid, *reverse_aliases.get(sid, [])}
                    if any(f.rule_id in covered for f in at_line):
                        continue
                dead.append(sid)
            if dead:
                stale.append(StaleSuppression(path, line, tuple(dead)))
    return stale


def run_lint(
    paths: Sequence[str],
    root: str | None = None,
    selected_rules: Sequence[str] | None = None,
) -> LintResult:
    """Lint ``paths`` (files or directories) under ``root``.

    Suppressed findings are flagged rather than failing; the result's
    :attr:`LintResult.new` list is what should gate CI.
    """
    root = os.path.abspath(root or os.getcwd())
    rules = instantiate(selected_rules)
    file_rules = [r for r in rules if r.node_types]
    program_rules = [r for r in rules if r.needs_program]
    _ALIASES.clear()
    _ALIASES.update(_alias_table(rules))
    result = LintResult()

    summaries: list[ModuleSummary] = []
    suppressions_by_path: dict[str, list[Suppression]] = {}
    lines_by_path: dict[str, list[str]] = {}

    for rel_path in discover(paths, root):
        absolute = os.path.join(root, rel_path)
        try:
            with open(absolute, "r", encoding="utf-8") as fh:
                source = fh.read()
        except OSError as exc:
            result.errors.append((rel_path, f"unreadable: {exc}"))
            continue
        lines_by_path[rel_path] = source.splitlines()
        try:
            findings, summary, suppressions = _analyze_source(
                source, rel_path, file_rules
            )
        except SyntaxError as exc:
            result.errors.append(
                (rel_path, f"syntax error: {exc.msg} (line {exc.lineno})")
            )
            continue
        result.files_checked += 1
        result.findings.extend(findings)
        summaries.append(summary)
        suppressions_by_path[rel_path] = suppressions

    if program_rules and summaries:
        program = Program(summaries)
        result.findings.extend(
            _run_program_rules(
                program, program_rules, suppressions_by_path, lines_by_path
            )
        )

    result.findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule_id))
    result.stale_suppressions = _stale_suppressions(
        suppressions_by_path, result.findings, set(all_rules())
    )
    return result
