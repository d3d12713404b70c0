"""``repro-bisect check``: run the verification oracles over every algorithm."""

from __future__ import annotations

import argparse
import json
import sys

from . import positive_int


def _cmd_check(args: argparse.Namespace) -> int:
    from ..engine import algorithm_names
    from ..verify import DEFAULT_FAMILIES, run_check

    known = set(algorithm_names())
    unknown = sorted(set(args.algorithm or []) - known)
    if unknown:
        print(
            f"unknown algorithm(s): {', '.join(unknown)} "
            f"(registered: {', '.join(sorted(known))})",
            file=sys.stderr,
        )
        return 2
    bad_families = sorted(set(args.family or []) - set(DEFAULT_FAMILIES))
    if bad_families:
        print(
            f"unknown corpus family(s): {', '.join(bad_families)} "
            f"(known: {', '.join(DEFAULT_FAMILIES)})",
            file=sys.stderr,
        )
        return 2
    families = tuple(args.family) if args.family else DEFAULT_FAMILIES
    if args.quick:
        sizes: tuple[int, ...] = (10,)
        seeds: tuple[int, ...] = (0,)
    else:
        sizes = (10, 16)
        seeds = tuple(range(args.seeds))
    report = run_check(
        algorithms=args.algorithm or None,
        families=families,
        sizes=sizes,
        seeds=seeds,
        include_exact=not args.no_exact,
        include_metamorphic=not args.no_metamorphic,
        jobs=args.jobs,
    )
    print(report.render(verbose=args.verbose))
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(report.to_json(), handle, indent=2)
            handle.write("\n")
        print(f"wrote {args.json}")
    return 0 if report.ok else 1


def add_check_parser(sub) -> None:
    check = sub.add_parser(
        "check",
        help="verify every registered algorithm against the invariant, "
        "exact, and metamorphic oracles",
    )
    check.add_argument(
        "--algorithm", action="append",
        help="check only this algorithm (repeatable; default: all registered)",
    )
    check.add_argument(
        "--family", action="append",
        help="corpus family (repeatable; default: all families)",
    )
    check.add_argument(
        "--seeds", type=positive_int, default=3,
        help="seeds per instance (default: 3)",
    )
    check.add_argument(
        "--quick", action="store_true",
        help="one size, one seed per family (smoke mode)",
    )
    check.add_argument("--json", help="also write the full JSON report here")
    check.add_argument(
        "--no-exact", action="store_true",
        help="skip the brute-force exact-oracle section",
    )
    check.add_argument(
        "--no-metamorphic", action="store_true",
        help="skip the metamorphic-relation section",
    )
    check.add_argument(
        "--jobs", type=positive_int, default=2,
        help="worker processes for the jobs-equivalence relation (default: 2)",
    )
    check.add_argument(
        "--verbose", action="store_true", help="list every record, not just failures"
    )
    check.set_defaults(func=_cmd_check)
