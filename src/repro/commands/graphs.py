"""Graph-file commands: ``generate``, ``kway``, ``score`` and ``info``."""

from __future__ import annotations

import argparse


def _cmd_generate(args: argparse.Namespace) -> int:
    from ..graphs.generators import (
        binary_tree,
        g2set,
        gbreg,
        gnp,
        grid_graph,
        ladder_graph,
    )
    from ..graphs.io import write_edge_list

    if args.model == "gbreg":
        graph = gbreg(args.vertices, args.width, args.degree, args.seed).graph
    elif args.model == "g2set":
        graph = g2set(args.vertices, args.p, args.p, args.width, args.seed).graph
    elif args.model == "gnp":
        graph = gnp(args.vertices, args.p, args.seed)
    elif args.model == "ladder":
        graph = ladder_graph(args.vertices // 2)
    elif args.model == "grid":
        side = int(round(args.vertices**0.5))
        graph = grid_graph(side, side)
    elif args.model == "btree":
        graph = binary_tree(args.vertices)
    else:  # pragma: no cover - argparse restricts choices
        raise AssertionError(args.model)
    write_edge_list(graph, args.out)
    print(f"wrote {graph!r} to {args.out}")
    return 0


def _cmd_kway(args: argparse.Namespace) -> int:
    from ..engine.telemetry import Timer
    from ..graphs.io import read_edge_list
    from ..partition.kway import recursive_kway

    graph = read_edge_list(args.graph)
    with Timer() as timer:
        partition = recursive_kway(graph, args.k, rng=args.seed)
    weights = partition.part_weights()
    print(
        f"k={args.k}: cut={partition.cut} part_weights={weights} "
        f"imbalance_ratio={partition.max_imbalance_ratio():.3f} time={timer.seconds:.3f}s"
    )
    if args.save_partition:
        from ..partition.io import write_partition

        write_partition(partition, args.save_partition)
        print(f"saved partition to {args.save_partition}")
    return 0


def _cmd_score(args: argparse.Namespace) -> int:
    """Score a saved partition file against its graph."""
    from ..graphs.io import read_edge_list
    from ..partition.io import read_partition

    graph = read_edge_list(args.graph)
    partition = read_partition(graph, args.partition)
    weights = partition.part_weights()
    print(
        f"k={partition.k}: cut={partition.cut} part_weights={weights} "
        f"imbalance_ratio={partition.max_imbalance_ratio():.3f}"
    )
    if partition.k == 2 and args.certify:
        from ..partition.bounds import certify

        report = certify(graph, partition.cut)
        print(
            f"lower bound: {report['lower']:.2f}  gap ratio: {report['gap_ratio']:.2f}"
            + ("  (provably optimal)" if report["optimal"] else "")
        )
    return 0


def _cmd_info(args: argparse.Namespace) -> int:
    from ..graphs.graph import graph_fingerprint
    from ..graphs.io import read_edge_list
    from ..graphs.traversal import connected_components

    graph = read_edge_list(args.graph)
    print(f"path: {args.graph}")
    print(f"fingerprint: {graph_fingerprint(graph)}")
    print(f"vertices: {graph.num_vertices}")
    print(f"edges: {graph.num_edges}")
    print(f"total edge weight: {graph.total_edge_weight}")
    print(f"total vertex weight: {graph.total_vertex_weight}")
    print(f"average degree: {graph.average_degree():.3f}")
    print(f"connected components: {len(connected_components(graph))}")
    return 0


def add_generate_parser(sub) -> None:
    gen = sub.add_parser("generate", help="generate a graph and write an edge list")
    gen.add_argument("model", choices=["gbreg", "g2set", "gnp", "ladder", "grid", "btree"])
    gen.add_argument("--vertices", type=int, required=True, help="number of vertices (2n)")
    gen.add_argument("--width", type=int, default=8, help="planted bisection width b")
    gen.add_argument("--degree", type=int, default=3, help="Gbreg regular degree d")
    gen.add_argument("--p", type=float, default=0.002, help="edge probability")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True, help="output edge-list path")
    gen.set_defaults(func=_cmd_generate)


def add_kway_parser(sub) -> None:
    kway = sub.add_parser("kway", help="k-way partition a saved graph")
    kway.add_argument("graph", help="edge-list path")
    kway.add_argument("--k", type=int, required=True, help="number of parts")
    kway.add_argument("--seed", type=int, default=0)
    kway.add_argument("--save-partition", help="write the resulting partition to this path")
    kway.set_defaults(func=_cmd_kway)


def add_score_parser(sub) -> None:
    score = sub.add_parser("score", help="score a saved partition against its graph")
    score.add_argument("graph", help="edge-list path")
    score.add_argument("partition", help="partition file path")
    score.add_argument("--certify", action="store_true")
    score.set_defaults(func=_cmd_score)


def add_info_parser(sub) -> None:
    info = sub.add_parser(
        "info", help="canonical fingerprint and stats of a saved graph"
    )
    info.add_argument("graph", help="edge-list path")
    info.set_defaults(func=_cmd_info)
