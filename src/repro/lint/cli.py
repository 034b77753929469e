"""Command-line front end.

Usage::

    python -m repro.lint src/ tests/ --baseline .stormlint-baseline.json

Exit codes: 0 — clean (modulo baseline/suppressions); 1 — new findings
or unparsable files; 2 — usage or baseline errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence

from repro.lint import baseline as baseline_mod
from repro.lint.cache import DEFAULT_CACHE_PATH
from repro.lint.engine import LintResult, run_lint
from repro.lint.findings import Finding, all_rules
from repro.lint.prune import prune_suppressions

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
        "--baseline",
        metavar="FILE",
        help="JSON baseline of grandfathered findings (missing file = empty)",
    )
    parser.add_argument(
        "--write-baseline",
        action="store_true",
        help="(re)write --baseline (default .stormlint-baseline.json) "
        "from the current findings and exit 0",
    )
    parser.add_argument(
        "--select",
        metavar="IDS",
        help="comma-separated rule ids to run (default: all)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format (default: text)",
    )
    parser.add_argument(
        "--show-suppressed",
        action="store_true",
        help="also print suppressed and baselined findings",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print every registered rule and its failure scenario",
    )
    parser.add_argument(
        "--explain",
        metavar="FINDING-ID",
        help="explain one finding by fingerprint (prefixes accepted): "
        "rule rationale plus, for flow/contract findings, the call chain",
    )
    parser.add_argument(
        "--prune-suppressions",
        action="store_true",
        help="rewrite files to drop suppression ids that no longer "
        "match any finding, then report what changed",
    )
    parser.add_argument(
        "--cache",
        metavar="FILE",
        default=DEFAULT_CACHE_PATH,
        help=f"incremental analysis cache (default: {DEFAULT_CACHE_PATH})",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the incremental cache for this run",
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


def _all_findings(result: LintResult) -> list[Finding]:
    return [*result.new, *result.baselined, *result.suppressed]


def _explain(result: LintResult, finding_id: str) -> int:
    matches = [
        f for f in _all_findings(result) if f.fingerprint.startswith(finding_id)
    ]
    if not matches:
        print(f"error: no finding matches id {finding_id!r}", file=sys.stderr)
        return EXIT_USAGE
    if len(matches) > 1 and len({f.fingerprint for f in matches}) > 1:
        print(
            f"error: id {finding_id!r} is ambiguous "
            f"({len(matches)} findings match); use more characters",
            file=sys.stderr,
        )
        return EXIT_USAGE
    finding = matches[0]
    rule_cls = all_rules().get(finding.rule_id)
    print(f"finding {finding.fingerprint} — {finding.rule_id}")
    print(f"  at {finding.location()}")
    print(f"  {finding.message}")
    if finding.snippet:
        print(f"      {finding.snippet}")
    if finding.chain:
        print("  call chain (root -> effect site):")
        for depth, qual in enumerate(finding.chain):
            print(f"    {'  ' * depth}{qual}")
    if rule_cls is not None and rule_cls.__doc__:
        print("  why this rule exists:")
        for line in rule_cls.__doc__.strip().splitlines():
            print(f"    {line.strip()}")
    return EXIT_CLEAN


def _print_text(result: LintResult, show_suppressed: bool) -> None:
    for finding in result.new:
        print(f"{finding.location()}: {finding.rule_id}: {finding.message}")
        if finding.snippet:
            print(f"    {finding.snippet}")
        if finding.chain:
            print(f"    chain: {' -> '.join(finding.chain)}")
        print(f"    (explain: python -m repro.lint --explain {finding.fingerprint[:8]} ...)")
    if show_suppressed:
        for finding in result.suppressed:
            print(f"{finding.location()}: {finding.rule_id}: suppressed")
        for finding in result.baselined:
            print(f"{finding.location()}: {finding.rule_id}: baselined")
    for path, message in result.errors:
        print(f"{path}: error: {message}")
    for stale in result.stale_suppressions:
        print(
            f"{stale.path}:{stale.line}: stale suppression "
            f"[{', '.join(stale.dead_ids)}] — run --prune-suppressions"
        )
    summary = (
        f"stormlint: {result.files_checked} files, "
        f"{len(result.new)} new finding(s), "
        f"{len(result.baselined)} baselined, "
        f"{len(result.suppressed)} suppressed"
    )
    if result.stale_baseline:
        summary += f", {len(result.stale_baseline)} stale baseline entries"
    if result.stale_suppressions:
        summary += f", {len(result.stale_suppressions)} stale suppression(s)"
    if result.cache_hits or result.cache_misses:
        summary += f" [cache: {result.cache_hits} hits, {result.cache_misses} misses]"
    print(summary)


def _print_json(result: LintResult) -> None:
    payload = {
        "files_checked": result.files_checked,
        "new": [vars(f) for f in result.new],
        "baselined": [vars(f) for f in result.baselined],
        "suppressed": [vars(f) for f in result.suppressed],
        "errors": [{"path": p, "message": m} for p, m in result.errors],
        "stale_baseline": result.stale_baseline,
        "stale_suppressions": [
            {
                "path": s.path,
                "line": s.line,
                "dead_ids": list(s.dead_ids),
                "comment": s.comment,
            }
            for s in result.stale_suppressions
        ],
    }
    print(json.dumps(payload, indent=2, default=list))


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
    baseline_path = args.baseline
    if args.write_baseline and baseline_path is None:
        baseline_path = ".stormlint-baseline.json"

    try:
        result = run_lint(
            args.paths,
            root=args.root,
            selected_rules=selected,
            # When rewriting, lint without the old baseline so every
            # finding lands in the fresh file.
            baseline_path=None if args.write_baseline else baseline_path,
            cache_path=None if args.no_cache else args.cache,
        )
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return EXIT_USAGE
    except baseline_mod.BaselineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    if args.explain:
        return _explain(result, args.explain)

    if args.prune_suppressions:
        edits = prune_suppressions(result.stale_suppressions, result.root)
        for path, line, what in edits:
            print(f"{path}:{line}: {what}")
        print(f"pruned {len(edits)} stale suppression(s)")
        return EXIT_CLEAN

    if args.write_baseline:
        assert baseline_path is not None
        base = baseline_mod.Baseline.from_findings(result.new)
        baseline_mod.save(base, baseline_path)
        print(f"wrote {len(base)} finding(s) to {baseline_path}")
        return EXIT_CLEAN

    if args.format == "json":
        _print_json(result)
    else:
        _print_text(result, args.show_suppressed)
    return EXIT_CLEAN if result.ok else EXIT_FINDINGS


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
