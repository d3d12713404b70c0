"""``repro-bisect run``: bisect a saved graph through the engine.

The command a cold start is measured on, so it has a module of its own.
"""

from __future__ import annotations

import argparse
import sys

from . import GRAPH_ALGORITHMS, add_engine_options, make_engine, positive_int


def _cmd_run(args: argparse.Namespace) -> int:
    from ..engine.job import AlgorithmSpec, Job
    from ..graphs.io import read_edge_list
    from ..rng import derive_seed, resolve_rng

    graph = read_edge_list(args.graph)
    spec = AlgorithmSpec.make(args.algorithm)
    engine = make_engine(args, cache=False)
    if args.starts > 1:
        # Best-of-R protocol: start seeds derive from the master seed
        # exactly as the bench harness derives them.
        master = resolve_rng(args.seed)
        jobs = [
            Job("graph", spec, derive_seed(master, index), job_id=f"start{index}")
            for index in range(args.starts)
        ]
    else:
        jobs = [Job("graph", spec, args.seed, job_id="run")]
    results = engine.run(jobs, {"graph": graph})
    good = [r for r in results if r.ok]
    if not good:
        print(f"{args.algorithm}: all {len(results)} start(s) failed "
              f"({results[0].error})", file=sys.stderr)
        return 1
    best = min(good, key=lambda r: r.cut)
    bisection = best.bisection(graph)
    elapsed = sum(r.seconds for r in results)
    print(
        f"{args.algorithm}: cut={bisection.cut} imbalance={bisection.imbalance} "
        f"time={elapsed:.3f}s |V|={graph.num_vertices} |E|={graph.num_edges}"
    )
    if args.starts > 1:
        print(f"starts: {len(results)}  cuts: {[r.cut for r in results]}")
    if args.certify:
        from ..partition.bounds import certify

        report = certify(graph, bisection.cut)
        print(
            f"lower bound: {report['lower']:.2f}  gap ratio: {report['gap_ratio']:.2f}"
            + ("  (provably optimal)" if report["optimal"] else "")
        )
    if args.save_partition:
        from ..partition.io import write_partition

        write_partition(bisection, args.save_partition)
        print(f"saved partition to {args.save_partition}")
    if args.show_sides:
        print("side 0:", sorted(map(str, bisection.side(0))))
        print("side 1:", sorted(map(str, bisection.side(1))))
    return 0


def add_run_parser(sub) -> None:
    run = sub.add_parser("run", help="bisect a saved graph")
    run.add_argument("graph", help="edge-list path")
    run.add_argument("--algorithm", choices=GRAPH_ALGORITHMS, default="ckl")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument(
        "--starts", type=positive_int, default=1,
        help="independent random starts (best cut wins; paper protocol is 2)",
    )
    run.add_argument("--show-sides", action="store_true")
    run.add_argument(
        "--certify", action="store_true",
        help="also compute bisection-width lower bounds (Stoer-Wagner, spectral)",
    )
    run.add_argument("--save-partition", help="write the resulting partition to this path")
    add_engine_options(run, cache=False)
    run.set_defaults(func=_cmd_run)
