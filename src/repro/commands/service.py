"""HTTP-service commands: ``serve``, ``repl`` and ``load``."""

from __future__ import annotations

import argparse
import json
import sys

from . import GRAPH_ALGORITHMS, non_negative_int, positive_int


def _cmd_serve(args: argparse.Namespace) -> int:
    from ..engine.cache import ResultCache
    from ..engine.telemetry import Telemetry
    from ..service import make_server

    store = None if args.no_cache else ResultCache(getattr(args, "cache_dir", None))
    api_keys = None
    if args.api_keys:
        try:
            with open(args.api_keys, encoding="utf-8") as stream:
                api_keys = json.load(stream)
        except (OSError, json.JSONDecodeError) as exc:
            print(f"cannot read API key table {args.api_keys}: {exc}", file=sys.stderr)
            return 2
        if not isinstance(api_keys, dict):
            print(f"{args.api_keys}: expected a JSON object of key -> tenant spec",
                  file=sys.stderr)
            return 2
    server = make_server(
        host=args.host,
        port=args.port,
        workers=args.workers,
        cache=store,
        telemetry=Telemetry(getattr(args, "telemetry", None)),
        api_keys=api_keys,
        quiet=not args.verbose,
        default_timeout=args.timeout,
        default_retries=args.retries,
        max_inflight=args.max_inflight,
        max_graphs=args.max_graphs,
    )
    cache_note = "off" if store is None else str(store.root)
    tenancy = "open (no API keys)" if api_keys is None else f"{len(api_keys)} tenant(s)"
    print(f"serving on {server.url}")
    print(f"workers: {args.workers}  cache: {cache_note}  tenancy: {tenancy}")
    print("endpoints: /v1/health /v1/graphs /v1/jobs /v1/results /metrics "
          "(Ctrl-C stops)")
    try:
        server.serve_forever()
    finally:
        # Runs on Ctrl-C too: stop accepting, drain the worker pool, then
        # let the KeyboardInterrupt propagate to main() for exit code 130.
        server.close()
    return 0


def _cmd_repl(args: argparse.Namespace) -> int:
    from ..service import run_repl

    return run_repl(sys.stdin, sys.stdout)


def _cmd_load(args: argparse.Namespace) -> int:
    from ..service import render_load_report, run_load

    generator_params = {
        "vertices": args.vertices,
        "width": args.width,
        "degree": args.degree,
        "seed": args.graph_seed,
    }
    if args.url:
        report = run_load(
            args.url,
            requests=args.requests,
            concurrency=args.concurrency,
            rounds=args.rounds,
            algorithm=args.algorithm,
            distinct_seeds=args.distinct_seeds,
            generator_params=generator_params,
            api_key=args.api_key,
            job_timeout=args.job_timeout,
        )
    else:
        # No --url: boot an in-process server on an ephemeral port and
        # load-test that, so the command is self-contained.
        from ..engine.cache import ResultCache
        from ..engine.telemetry import Telemetry
        from ..service import ServiceThread

        store = None if args.no_cache else ResultCache(getattr(args, "cache_dir", None))
        with ServiceThread(
            workers=args.workers, cache=store,
            telemetry=Telemetry(getattr(args, "telemetry", None)),
            max_inflight=max(64, 2 * args.concurrency),
        ) as service:
            print(f"self-serving on {service.url} ({args.workers} worker(s))")
            report = run_load(
                service.url,
                requests=args.requests,
                concurrency=args.concurrency,
                rounds=args.rounds,
                algorithm=args.algorithm,
                distinct_seeds=args.distinct_seeds,
                generator_params=generator_params,
                job_timeout=args.job_timeout,
            )
    print(render_load_report(report))
    if args.json_out:
        with open(args.json_out, "w", encoding="utf-8") as stream:
            json.dump(report, stream, indent=2, sort_keys=True)
            stream.write("\n")
        print(f"wrote {args.json_out}")
    return 0 if report["ok"] else 1


def add_serve_parser(sub) -> None:
    serve = sub.add_parser(
        "serve", help="serve the partitioning engine over HTTP/JSON"
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=8642, help="listen port (0 = ephemeral)"
    )
    serve.add_argument(
        "--workers", type=positive_int, default=2,
        help="engine worker threads shared by all tenants (default: 2)",
    )
    serve.add_argument(
        "--api-keys", metavar="PATH",
        help="JSON file mapping API key -> {name, max_inflight, max_graphs}; "
        "omitted = open mode (one shared 'public' tenant)",
    )
    serve.add_argument(
        "--max-inflight", type=positive_int, default=64,
        help="default per-tenant in-flight job quota (default: 64)",
    )
    serve.add_argument(
        "--max-graphs", type=positive_int, default=32,
        help="default per-tenant stored-graph quota (default: 32)",
    )
    serve.add_argument(
        "--timeout", type=float, default=None,
        help="default per-job timeout passed to submissions",
    )
    serve.add_argument(
        "--retries", type=non_negative_int, default=0,
        help="default per-job retries (each retry derives a fresh seed)",
    )
    serve.add_argument(
        "--verbose", action="store_true", help="log each HTTP request to stderr"
    )
    serve.add_argument(
        "--telemetry",
        help="append engine telemetry events to this JSONL file",
    )
    serve.add_argument(
        "--no-cache", action="store_true", help="disable the result cache"
    )
    serve.add_argument(
        "--cache-dir",
        help="result cache directory (default: $REPRO_CACHE_DIR or "
        "~/.cache/repro-bisect)",
    )
    serve.set_defaults(func=_cmd_serve)


def add_repl_parser(sub) -> None:
    repl = sub.add_parser(
        "repl", help="interactive graph session (CSV import, queries, submit)"
    )
    repl.set_defaults(func=_cmd_repl)


def add_load_parser(sub) -> None:
    load = sub.add_parser(
        "load", help="load-test a running serve (or a self-served instance)"
    )
    load.add_argument(
        "--url",
        help="service base URL; omitted = boot an in-process server first",
    )
    load.add_argument(
        "--requests", type=positive_int, default=100,
        help="submit/poll/fetch interactions per round (default: 100)",
    )
    load.add_argument(
        "--concurrency", type=positive_int, default=8,
        help="concurrent client threads (default: 8)",
    )
    load.add_argument(
        "--rounds", type=positive_int, default=2,
        help="times to replay the identical request set (default: 2; "
        "round 2 should be nearly all cache hits)",
    )
    load.add_argument(
        "--algorithm", choices=GRAPH_ALGORITHMS, default="ckl",
        help="algorithm each job runs (default: ckl)",
    )
    load.add_argument(
        "--distinct-seeds", type=positive_int, default=None,
        help="seed pool size; requests cycle through it "
        "(default: requests // 4)",
    )
    load.add_argument(
        "--vertices", type=positive_int, default=500,
        help="Gbreg graph size for the workload (default: 500)",
    )
    load.add_argument("--width", type=positive_int, default=4)
    load.add_argument("--degree", type=positive_int, default=3)
    load.add_argument("--graph-seed", type=int, default=0)
    load.add_argument("--api-key", help="X-API-Key for keyed servers")
    load.add_argument(
        "--job-timeout", type=float, default=120.0,
        help="per-request poll deadline in seconds (default: 120)",
    )
    load.add_argument(
        "--workers", type=positive_int, default=2,
        help="worker threads for the self-served instance (no --url only)",
    )
    load.add_argument("--json-out", help="also write the full JSON report here")
    load.add_argument(
        "--no-cache", action="store_true",
        help="self-served instance: disable the result cache",
    )
    load.add_argument(
        "--cache-dir", help="self-served instance: result cache directory"
    )
    load.add_argument(
        "--telemetry", help="self-served instance: telemetry JSONL file"
    )
    load.set_defaults(func=_cmd_load)
