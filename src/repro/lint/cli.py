"""Command-line front end.

Usage::

    python -m repro.lint src/ tests/

Exit codes: 0 — clean (modulo suppressions); 1 — new findings or
unparsable files; 2 — usage errors.  Stale suppressions are listed
either way.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from repro.lint.engine import LintResult, run_lint
from repro.lint.findings import all_rules

EXIT_CLEAN = 0
EXIT_FINDINGS = 1
EXIT_USAGE = 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description="stormlint: determinism & simulation-safety static analysis",
    )
    parser.add_argument("paths", nargs="*", help="files or directories to lint")
    parser.add_argument(
        "--select",
        metavar="IDS",
        help="comma-separated rule ids to run (default: all)",
    )
    parser.add_argument(
        "--show-suppressed",
        action="store_true",
        help="also print suppressed findings",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print every registered rule and its failure scenario",
    )
    parser.add_argument(
        "--root",
        default=None,
        help="repo root paths are resolved against (default: cwd)",
    )
    return parser


def _list_rules() -> int:
    for rule_id, cls in sorted(all_rules().items()):
        doc = (cls.__doc__ or "").strip().splitlines()
        print(f"{rule_id:22s} [{cls.family}] {cls.summary}")
        for line in doc[1:]:
            print(f"    {line.strip()}")
        print()
    return EXIT_CLEAN


def _print_text(result: LintResult, show_suppressed: bool) -> None:
    for finding in result.new:
        print(f"{finding.location()}: {finding.rule_id}: {finding.message}")
        if finding.snippet:
            print(f"    {finding.snippet}")
        if finding.chain:
            print(f"    chain: {' -> '.join(finding.chain)}")
    if show_suppressed:
        for finding in result.suppressed:
            print(f"{finding.location()}: {finding.rule_id}: suppressed")
    for path, message in result.errors:
        print(f"{path}: error: {message}")
    for stale in result.stale_suppressions:
        print(
            f"{stale.path}:{stale.line}: stale suppression "
            f"[{', '.join(stale.dead_ids)}] — delete the dead ids"
        )
    summary = (
        f"stormlint: {result.files_checked} files, "
        f"{len(result.new)} new finding(s), "
        f"{len(result.suppressed)} suppressed"
    )
    if result.stale_suppressions:
        summary += f", {len(result.stale_suppressions)} stale suppression(s)"
    print(summary)


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        return _list_rules()
    if not args.paths:
        parser.print_usage(sys.stderr)
        print("error: no paths given", file=sys.stderr)
        return EXIT_USAGE

    selected = (
        [s.strip() for s in args.select.split(",") if s.strip()]
        if args.select
        else None
    )
    try:
        result = run_lint(args.paths, root=args.root, selected_rules=selected)
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return EXIT_USAGE

    _print_text(result, args.show_suppressed)
    return EXIT_CLEAN if result.ok else EXIT_FINDINGS


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
