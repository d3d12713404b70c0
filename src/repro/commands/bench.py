"""Paper-workload commands: ``report``, ``table``, ``batch`` and ``perf``."""

from __future__ import annotations

import argparse
import json
import sys

from . import add_engine_options, add_obs_options, make_engine, non_negative_int, positive_int

# Paper tables: name -> (case builder in repro.bench.workloads, its extra args).
_TABLES = {
    "gbreg-d3": ("gbreg_cases", 3),
    "gbreg-d4": ("gbreg_cases", 4),
    "g2set-2.5": ("g2set_cases", 2.5),
    "g2set-3": ("g2set_cases", 3.0),
    "g2set-3.5": ("g2set_cases", 3.5),
    "g2set-4": ("g2set_cases", 4.0),
    "gnp": ("gnp_cases",),
    "ladder": ("ladder_cases",),
    "grid": ("grid_cases",),
    "btree": ("btree_cases",),
}


def _cmd_report(args: argparse.Namespace) -> int:
    from ..bench.report import generate_report
    from ..bench.workloads import current_scale

    scale = current_scale()
    engine = make_engine(args)
    text = generate_report(
        scale, rng=args.seed, include_sa=not args.kl_only, engine=engine
    )
    if args.out:
        with open(args.out, "w", encoding="utf-8") as stream:
            stream.write(text + "\n")
        print(f"wrote report to {args.out}")
    else:
        print(text)
    return 0


def _cmd_table(args: argparse.Namespace) -> int:
    from ..bench import workloads
    from ..bench.runner import run_workload
    from ..bench.tables import render_paper_table

    scale = workloads.current_scale()
    builder, *extra = _TABLES[args.table]
    cases = getattr(workloads, builder)(scale, *extra)
    include_sa = not args.kl_only
    algorithms = workloads.standard_algorithm_specs(scale, include_sa=include_sa)
    engine = make_engine(args)
    rows = run_workload(
        cases, algorithms, rng=args.seed, starts=scale.starts, engine=engine
    )
    pairs = (("sa", "csa"), ("kl", "ckl")) if include_sa else (("kl", "ckl"),)
    print(
        render_paper_table(
            f"table {args.table} @ scale={scale.name}", rows, base_pairs=pairs
        )
    )
    print(engine.telemetry.render_summary())
    return 0


def _cmd_batch(args: argparse.Namespace) -> int:
    from ..bench.tables import render_generic_table
    from ..engine.batch import read_batch_file, run_batch

    try:
        entries = read_batch_file(args.spec)
    except (OSError, ValueError) as exc:
        print(f"cannot read batch spec {args.spec}: {exc}", file=sys.stderr)
        return 1
    if not entries:
        print("batch spec has no jobs", file=sys.stderr)
        return 1
    engine = make_engine(args, timeout=args.timeout, retries=args.retries)
    try:
        rows = run_batch(entries, engine)
    except OSError as exc:  # a spec entry names an unreadable graph file
        print(f"batch failed: {exc}", file=sys.stderr)
        return 1
    if args.out:
        with open(args.out, "w", encoding="utf-8") as stream:
            for row in rows:
                stream.write(json.dumps(row, sort_keys=True) + "\n")
        print(f"wrote {len(rows)} result(s) to {args.out}")
    print(
        render_generic_table(
            ["label", "algorithm", "status", "cut", "time(s)", "cached"],
            [
                [
                    row["label"],
                    row["algorithm"],
                    row["status"],
                    "-" if row["cut"] is None else row["cut"],
                    f"{row['seconds']:.2f}",
                    f"{row['cache_hits']}/{row['starts']}",
                ]
                for row in rows
            ],
            title=f"batch {args.spec}",
        )
    )
    print(engine.telemetry.render_summary())
    return 0 if all(row["status"] == "ok" for row in rows) else 1


def _cmd_perf(args: argparse.Namespace) -> int:
    from ..bench.perf import (
        PERF_SIZES,
        SMALL_SIZES,
        diff_snapshots,
        load_snapshot,
        measure_size,
        render_diff,
        render_snapshot,
        snapshot_path,
        write_snapshot,
    )

    if args.diff:
        old_path, new_path = args.diff
        try:
            report = diff_snapshots(load_snapshot(old_path), load_snapshot(new_path))
        except (OSError, ValueError) as exc:
            print(f"cannot diff snapshots: {exc}", file=sys.stderr)
            return 2
        print(render_diff(report))
        return 0 if report["ok"] else 1

    sizes = args.size or (SMALL_SIZES if args.small else PERF_SIZES)
    exit_code = 0
    for two_n in sizes:
        snapshot = measure_size(
            two_n,
            seed=args.seed,
            sa_size_factor=args.sa_size_factor,
            repeats=args.repeats,
        )
        print(render_snapshot(snapshot))
        if not snapshot["ok"]:
            print(
                f"2n={two_n}: kernel backends disagree (see 'match' column)",
                file=sys.stderr,
            )
            exit_code = 1
        path = write_snapshot(snapshot, args.out_dir)
        print(f"wrote {path}")
        if args.check:
            baseline_path = snapshot_path(args.check, two_n)
            try:
                baseline = load_snapshot(baseline_path)
            except OSError:
                print(f"no baseline {baseline_path}; skipping diff", file=sys.stderr)
                continue
            except ValueError as exc:
                print(f"bad baseline: {exc}", file=sys.stderr)
                exit_code = 1
                continue
            try:
                report = diff_snapshots(baseline, snapshot)
            except ValueError as exc:
                print(f"cannot diff against baseline: {exc}", file=sys.stderr)
                exit_code = 1
                continue
            print(render_diff(report))
            if not report["ok"]:
                exit_code = 1
    return exit_code


def add_report_parser(sub) -> None:
    report = sub.add_parser(
        "report", help="run every paper table at REPRO_SCALE into one markdown report"
    )
    report.add_argument("--out", help="output path (default: stdout)")
    report.add_argument("--seed", type=int, default=0)
    report.add_argument("--kl-only", action="store_true", help="skip SA/CSA")
    add_engine_options(report)
    report.set_defaults(func=_cmd_report)


def add_table_parser(sub) -> None:
    table = sub.add_parser("table", help="regenerate a paper table at REPRO_SCALE")
    table.add_argument("table", choices=sorted(_TABLES))
    table.add_argument("--seed", type=int, default=0)
    table.add_argument(
        "--kl-only", action="store_true", help="skip SA/CSA (much faster)"
    )
    add_engine_options(table)
    table.set_defaults(func=_cmd_table)


def add_batch_parser(sub) -> None:
    batch = sub.add_parser(
        "batch", help="run a declarative JSON batch spec through the engine"
    )
    batch.add_argument("spec", help="batch spec path (JSON; see docs/engine.md)")
    batch.add_argument("--out", help="write per-entry results to this JSONL path")
    batch.add_argument(
        "--timeout", type=float, default=None,
        help="default per-job wall-clock timeout in seconds",
    )
    batch.add_argument(
        "--retries", type=non_negative_int, default=0,
        help="default retries per job (each retry gets a fresh derived seed)",
    )
    add_engine_options(batch)
    batch.set_defaults(func=_cmd_batch)


def add_perf_parser(sub) -> None:
    perf = sub.add_parser(
        "perf",
        help="time the kernel backends on the paper workloads "
        "(writes BENCH_<n>.json snapshots; can diff two snapshots)",
    )
    perf.add_argument(
        "--small", action="store_true",
        help="only 2n = 500 and 2000 (the CI sizes)",
    )
    perf.add_argument(
        "--size", type=positive_int, action="append",
        help="benchmark only this 2n (repeatable; overrides --small)",
    )
    perf.add_argument("--seed", type=int, default=0)
    perf.add_argument(
        "--sa-size-factor", type=positive_int, default=4,
        help="SA/CSA temperature length factor (default: 4)",
    )
    perf.add_argument(
        "--repeats", type=positive_int, default=1,
        help="timed repetitions per cell; minimum wall time wins (default: 1)",
    )
    perf.add_argument(
        "--out-dir", default=".",
        help="directory for BENCH_<n>.json snapshots (default: cwd)",
    )
    perf.add_argument(
        "--check", metavar="DIR",
        help="after measuring, diff each snapshot against DIR/BENCH_<n>.json "
        "and exit non-zero when a seeded cut or move count differs",
    )
    perf.add_argument(
        "--diff", nargs=2, metavar=("OLD", "NEW"),
        help="just diff two snapshot files (no measurement)",
    )
    add_obs_options(perf)
    perf.set_defaults(func=_cmd_perf)
