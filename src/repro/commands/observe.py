"""Commands that read what runs leave behind: ``stats``, ``trace``, ``top``, ``cache``.

``stats`` renders run ledgers, ``trace`` exports telemetry JSONL as a
timeline, ``top`` follows a telemetry file or a served ``/metrics`` live,
and ``cache`` inspects or bounds the result cache.
"""

from __future__ import annotations

import argparse
import sys

from . import positive_int


def _cmd_stats(args: argparse.Namespace) -> int:
    from ..bench.tables import render_generic_table
    from ..obs import (
        diff_ledgers,
        ledger_dir,
        load_ledger,
        render_ledger,
        render_ledger_diff,
        render_ledger_prometheus,
        validate_ledger,
    )

    if args.diff:
        old_path, new_path = args.diff
        try:
            report = diff_ledgers(load_ledger(old_path), load_ledger(new_path))
        except (OSError, ValueError) as exc:
            print(f"cannot diff ledgers: {exc}", file=sys.stderr)
            return 2
        print(render_ledger_diff(report))
        return 0

    if not args.ledgers:
        # No arguments: list what the ledger directory holds.
        directory = ledger_dir()
        rows = []
        for path in sorted(directory.glob("*.json")) if directory.is_dir() else []:
            try:
                ledger = load_ledger(path)
            except (OSError, ValueError):
                continue
            rows.append(
                [
                    path.name,
                    ledger.get("run_id", "?"),
                    " ".join(ledger.get("argv", []))[:48] or "-",
                    f"{ledger.get('wall_seconds', 0.0):.2f}",
                ]
            )
        if not rows:
            print(f"no ledgers under {directory} (record one with --ledger auto)")
            return 0
        print(
            render_generic_table(
                ["file", "run id", "argv", "wall(s)"],
                rows,
                title=f"ledgers in {directory}",
            )
        )
        return 0

    exit_code = 0
    for index, path in enumerate(args.ledgers):
        try:
            ledger = load_ledger(path)
        except (OSError, ValueError) as exc:
            print(f"cannot read ledger {path}: {exc}", file=sys.stderr)
            exit_code = 2
            continue
        if args.validate:
            violations = validate_ledger(ledger)
            if violations:
                for violation in violations:
                    print(f"{path}: {violation}", file=sys.stderr)
                exit_code = exit_code or 1
            else:
                print(f"{path}: valid")
            continue
        if index:
            print()
        if args.prometheus:
            print(render_ledger_prometheus(ledger), end="")
        else:
            print(render_ledger(ledger))
    return exit_code


def _cmd_trace(args: argparse.Namespace) -> int:
    from ..obs.timeline import (
        export_chrome_trace,
        read_event_records,
        validate_chrome_trace,
        write_chrome_trace,
    )

    try:
        records = read_event_records(args.events)
    except OSError as exc:
        print(f"cannot read {args.events}: {exc}", file=sys.stderr)
        return 2
    if not records:
        print(f"{args.events}: no envelope records found", file=sys.stderr)
        return 1
    document = export_chrome_trace(records)
    violations = validate_chrome_trace(document)
    if violations:
        for violation in violations:
            print(f"trace: {violation}", file=sys.stderr)
        return 1
    other = document["otherData"]
    lanes = sum(1 for e in document["traceEvents"] if e.get("ph") == "M")
    path = write_chrome_trace(document, args.out)
    print(
        f"wrote {path} ({other['spans']} spans, {other['events']} events, "
        f"{lanes} lane(s)) — load it at https://ui.perfetto.dev"
    )
    return 0


def _cmd_top(args: argparse.Namespace) -> int:
    from ..obs.top import run_top

    return run_top(
        events=args.events,
        url=args.url,
        interval=args.interval,
        once=args.once,
        frames=args.frames,
    )


def _cmd_cache(args: argparse.Namespace) -> int:
    from ..engine.cache import ResultCache

    store = ResultCache(getattr(args, "cache_dir", None))
    if args.action == "stats":
        stats = store.stats()
        print(f"root: {stats['root']}")
        print(f"entries: {stats['entries']}")
        print(f"bytes: {stats['bytes']}")
        if stats["entries"]:
            span_seconds = (stats["newest_mtime"] or 0) - (stats["oldest_mtime"] or 0)
            print(f"write span: {span_seconds:.0f}s")
        return 0
    # prune
    if args.max_bytes is None:
        print("cache prune requires --max-bytes", file=sys.stderr)
        return 2
    report = store.prune(args.max_bytes)
    print(
        f"removed {report['removed']} entr{'y' if report['removed'] == 1 else 'ies'}, "
        f"freed {report['freed_bytes']} bytes, kept {report['kept_bytes']} bytes"
    )
    return 0


def add_stats_parser(sub) -> None:
    stats = sub.add_parser(
        "stats",
        help="render run ledgers as an ASCII dashboard, or diff two of them",
    )
    stats.add_argument(
        "ledgers", nargs="*",
        help="ledger JSON path(s) to render (none: list the ledger directory)",
    )
    stats.add_argument(
        "--diff", nargs=2, metavar=("OLD", "NEW"),
        help="counter-level explanation of what changed between two runs",
    )
    stats.add_argument(
        "--validate", action="store_true",
        help="check each ledger against the schema; exit non-zero on violations",
    )
    stats.add_argument(
        "--prometheus", action="store_true",
        help="dump metrics in Prometheus text format instead of the dashboard",
    )
    stats.set_defaults(func=_cmd_stats)


def add_trace_parser(sub) -> None:
    trace = sub.add_parser(
        "trace",
        help="export a telemetry/span JSONL file as a Chrome trace "
        "(Perfetto-loadable) timeline",
    )
    trace.add_argument("action", choices=["export"])
    trace.add_argument(
        "events",
        help="JSONL file from --telemetry / --ledger runs (spans + engine events)",
    )
    trace.add_argument(
        "--out", default="trace.json",
        help="output trace path (default: trace.json)",
    )
    trace.set_defaults(func=_cmd_trace)


def add_top_parser(sub) -> None:
    top = sub.add_parser(
        "top",
        help="live TTY dashboard over a telemetry file or a served /metrics",
    )
    top.add_argument(
        "events", nargs="?", default=None,
        help="telemetry JSONL file a concurrent run is appending to",
    )
    top.add_argument(
        "--url", help="poll this repro-bisect serve base URL instead of a file"
    )
    top.add_argument(
        "--interval", type=float, default=1.0,
        help="refresh period in seconds (default: 1.0)",
    )
    top.add_argument(
        "--once", action="store_true",
        help="print a single frame and exit (no screen control; CI mode)",
    )
    top.add_argument(
        "--frames", type=positive_int, default=None,
        help="stop after this many refreshes (default: until Ctrl-C)",
    )
    top.set_defaults(func=_cmd_top)


def add_cache_parser(sub) -> None:
    cache = sub.add_parser(
        "cache", help="inspect or bound the content-addressed result cache"
    )
    cache.add_argument("action", choices=["stats", "prune"])
    cache.add_argument(
        "--max-bytes", type=int, default=None,
        help="prune: evict oldest entries until total size fits this budget",
    )
    cache.add_argument(
        "--cache-dir",
        help="result cache directory (default: $REPRO_CACHE_DIR or "
        "~/.cache/repro-bisect)",
    )
    cache.set_defaults(func=_cmd_cache)
