"""``repro-bisect lint``: the static analyzer over the source tree."""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path


def _cmd_lint(args: argparse.Namespace) -> int:
    from ..analysis import (
        AnalysisConfig,
        default_baseline_path,
        default_config,
        render_json,
        render_text,
        to_sarif,
        update_baseline,
        valid_rule_ids,
    )
    from ..analysis.lintcache import run_cached_analysis
    from ..analysis.runner import analyze

    if args.root:
        config = AnalysisConfig(root=Path(args.root))
    else:
        config = default_config()
    rule_ids: list[str] = []
    for chunk in args.rule or []:
        rule_ids.extend(part.strip() for part in chunk.split(",") if part.strip())
    if rule_ids:
        unknown = sorted(set(rule_ids) - set(valid_rule_ids()))
        if unknown:
            print(
                f"unknown rule id(s): {', '.join(unknown)} "
                f"(valid: {', '.join(valid_rule_ids())})",
                file=sys.stderr,
            )
            return 2
        config = replace(config, rules=tuple(rule_ids))
    if args.dry_run and not args.fix:
        print("--dry-run only makes sense with --fix", file=sys.stderr)
        return 2
    baseline_path = Path(args.baseline) if args.baseline else default_baseline_path()

    if args.update_baseline:
        from ..analysis import Baseline

        findings, _, _ = analyze(config)
        baseline = update_baseline(findings, Baseline.load(baseline_path))
        baseline.save(baseline_path)
        todo = sum(1 for e in baseline.entries if e.problem())
        print(f"wrote {baseline_path} ({len(baseline.entries)} entries, {todo} needing justification)")
        return 0

    result, stats = run_cached_analysis(
        config, baseline_path, use_cache=not args.no_cache
    )
    if stats.enabled:
        print(stats.describe(), file=sys.stderr)
    if args.cache_stats:
        with open(args.cache_stats, "w", encoding="utf-8") as handle:
            json.dump(stats.to_json(), handle, indent=2)
            handle.write("\n")

    if args.fix:
        from ..analysis.fixes import plan_fixes

        plan = plan_fixes(config, result.findings)
        summary = (
            f"{plan.fixed_count} finding(s) auto-fixable in "
            f"{len(plan.modules)} file(s); {len(plan.skipped)} left for a human"
        )
        if args.dry_run:
            sys.stdout.write(plan.diff())
            print(f"dry run: {summary}")
            return 0
        touched = plan.apply()
        for rel in touched:
            print(f"rewrote {rel}")
        print(f"applied: {summary}")
        return 0

    if args.format == "sarif":
        sarif = to_sarif(
            result.findings,
            result.suppressed_with_justifications(),
            result.rules,
        )
        text = json.dumps(sarif, indent=2)
    elif args.format == "json":
        text = render_json(
            result.findings,
            result.suppressed,
            result.stale,
            result.baseline_problems,
            result.modules_scanned,
        )
    else:
        text = render_text(
            result.findings,
            result.suppressed,
            result.stale,
            result.baseline_problems,
            result.modules_scanned,
        )
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
        print(f"wrote {args.out}")
    else:
        print(text)
    if args.check and not result.ok:
        return 1
    return 0


def add_lint_parser(sub) -> None:
    lint = sub.add_parser(
        "lint",
        help="statically check the source tree against the determinism, "
        "invariant, and concurrency/lifetime ruleset (R001-R016)",
    )
    lint.add_argument(
        "--format", choices=["text", "json", "sarif"], default="text",
        help="output format (default: text)",
    )
    lint.add_argument(
        "--check", action="store_true",
        help="exit non-zero on unsuppressed findings, stale baseline "
        "entries, or missing justifications",
    )
    lint.add_argument(
        "--update-baseline", action="store_true",
        help="rewrite the baseline to cover current findings (new entries "
        "get a TODO justification that --check rejects)",
    )
    lint.add_argument(
        "--baseline",
        help="baseline file (default: the checked-in analysis/baseline.json)",
    )
    lint.add_argument(
        "--root",
        help="package directory to scan (default: the installed repro package)",
    )
    lint.add_argument(
        "--rule", action="append",
        help="run only these rule ids (repeatable and/or comma-separated, "
        "e.g. --rule R002,R013; default: all rules)",
    )
    lint.add_argument(
        "--no-cache", action="store_true",
        help="ignore the incremental lint cache and re-analyze everything",
    )
    lint.add_argument(
        "--cache-stats",
        help="write cache hit/miss statistics as JSON to this path",
    )
    lint.add_argument(
        "--fix", action="store_true",
        help="rewrite the mechanical findings in place (R002 clock calls, "
        "R010 metric names, R013 with-wrapping) and exit",
    )
    lint.add_argument(
        "--dry-run", action="store_true",
        help="with --fix: print the unified diff instead of writing files",
    )
    lint.add_argument("--out", help="write the report here instead of stdout")
    lint.set_defaults(func=_cmd_lint)
