"""``repro-bisect netlist``: generate or bisect hMETIS netlists."""

from __future__ import annotations

import argparse


def _cmd_netlist(args: argparse.Namespace) -> int:
    from ..engine.telemetry import Timer
    from ..hypergraph import (
        compacted_hypergraph_fm,
        hypergraph_fm,
        multilevel_hypergraph_fm,
        random_netlist,
        read_hmetis,
        write_hmetis,
    )

    if args.action == "generate":
        netlist = random_netlist(args.cells, clusters=args.clusters, rng=args.seed)
        write_hmetis(netlist, args.file)
        print(f"wrote {netlist!r} to {args.file}")
        return 0

    netlist = read_hmetis(args.file)
    if args.k > 2:
        from ..hypergraph.kway import recursive_kway_hypergraph

        with Timer() as timer:
            partition = recursive_kway_hypergraph(netlist, args.k, rng=args.seed)
        print(
            f"kway k={args.k}: cut_nets={partition.cut_nets} "
            f"connectivity-1={partition.connectivity_minus_one} "
            f"part_weights={partition.part_weights()} time={timer.seconds:.3f}s"
        )
        return 0
    runners = {
        "fm": hypergraph_fm,
        "cfm": compacted_hypergraph_fm,
        "multilevel": multilevel_hypergraph_fm,
    }
    with Timer() as timer:
        result = runners[args.algorithm](netlist, rng=args.seed)
    bisection = result.bisection
    print(
        f"{args.algorithm}: net_cut={bisection.cut} imbalance={bisection.imbalance} "
        f"time={timer.seconds:.3f}s |V|={netlist.num_vertices} |N|={netlist.num_nets}"
    )
    return 0


def add_netlist_parser(sub) -> None:
    netlist = sub.add_parser("netlist", help="generate or bisect hMETIS netlists")
    netlist.add_argument("action", choices=["generate", "run"])
    netlist.add_argument("file", help="hMETIS (.hgr) path")
    netlist.add_argument("--cells", type=int, default=500)
    netlist.add_argument("--clusters", type=int, default=8)
    netlist.add_argument(
        "--algorithm", choices=["fm", "cfm", "multilevel"], default="multilevel"
    )
    netlist.add_argument(
        "--k", type=int, default=2, help="parts for k-way netlist partitioning (run only)"
    )
    netlist.add_argument("--seed", type=int, default=0)
    netlist.set_defaults(func=_cmd_netlist)
