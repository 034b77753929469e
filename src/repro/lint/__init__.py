"""stormlint: determinism & simulation-safety static analysis.

The repo's experiment claims rest on bit-identical deterministic
replay; this package turns the invariants that protect it (virtual
clock only, seeded RNG streams only, no hash-order leaks, generators
run by the kernel, ...) from convention into machine-checked rules.
See DESIGN.md §10 for the rule catalogue and the suppression
workflow, or run ``python -m repro.lint --list-rules``.
"""

from repro.lint.engine import LintResult, discover, lint_file_source, run_lint
from repro.lint.findings import FileContext, Finding, Rule, all_rules, rule

__all__ = [
    "FileContext",
    "Finding",
    "LintResult",
    "Rule",
    "all_rules",
    "discover",
    "lint_file_source",
    "rule",
    "run_lint",
]
