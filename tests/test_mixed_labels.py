"""Graphs whose vertex labels mix ints and strings.

Such labels are not mutually comparable, so the CSR view ranks them by
insertion order (see :func:`repro.graphs.csr.label_ranks`) and the KL/FM
gain queues break ties on that rank.  Every heuristic must run on them:
from the CLI, in process, and sharded across workers through shared
memory, where the attaching side rebuilds the same ranks.
"""

from __future__ import annotations

import ast
import re

import pytest

from repro.cli import main
from repro.engine import AlgorithmSpec, Engine, Job, build_algorithm
from repro.engine.telemetry import Telemetry
from repro.graphs.generators import gbreg
from repro.graphs.graph import Graph
from repro.graphs.io import read_edge_list
from repro.partition.annealing import AnnealingSchedule, simulated_annealing
from repro.partition.bisection import Bisection
from repro.rng import LaggedFibonacciRandom, derive_seed
from repro.verify.invariants import check_result

MIXED_EDGES = "1 a\na 2\n2 b\nb 3\n3 c\nc 1\n1 2\na b\n"


@pytest.fixture
def mixed_file(tmp_path):
    path = tmp_path / "mixed.edges"
    path.write_text(MIXED_EDGES)
    return path


def _mixed_gbreg(seed: int = 11) -> Graph:
    """A Gbreg graph relabeled so odd vertices are ints and even ones strings."""
    graph = gbreg(60, 4, 3, LaggedFibonacciRandom(seed)).graph

    def label(v):
        return v if v % 2 else f"s{v}"

    relabeled = Graph()
    for v in graph.vertices():
        relabeled.add_vertex(label(v), graph.vertex_weight(v))
    for u, v, w in graph.edges():
        relabeled.add_edge(label(u), label(v), w)
    return relabeled


@pytest.mark.parametrize("algorithm", ["kl", "fm", "ckl"])
def test_cli_run_on_mixed_labels(mixed_file, algorithm, capsys):
    code = main(
        ["run", str(mixed_file), "--algorithm", algorithm, "--seed", "3",
         "--show-sides"]
    )
    out = capsys.readouterr().out
    assert code == 0, out
    cut = int(re.search(r"cut=(\d+)", out).group(1))

    graph = read_edge_list(mixed_file)
    by_text = {str(v): v for v in graph.vertices()}
    printed = ast.literal_eval(re.search(r"side 0: (\[.*\])", out).group(1))
    bisection = Bisection.from_sides(graph, [by_text[v] for v in printed])
    assert bisection.cut == cut
    assert bisection.is_balanced()

    result = build_algorithm(algorithm)(graph, LaggedFibonacciRandom(3))
    assert check_result(graph, result) == []


@pytest.mark.parametrize("algorithm", ["kl", "fm", "ckl"])
def test_gain_queue_heuristics_on_many_ties(algorithm):
    graph = _mixed_gbreg()
    result = build_algorithm(algorithm)(graph, LaggedFibonacciRandom(5))
    assert check_result(graph, result) == []


def test_sa_swap_neighborhood_on_mixed_labels():
    graph = _mixed_gbreg()
    result = simulated_annealing(
        graph, rng=5, schedule=AnnealingSchedule(size_factor=1),
        neighborhood="swap",
    )
    assert check_result(graph, result) == []


@pytest.mark.parametrize("algorithm", ["kl", "fm", "ckl"])
def test_shm_sharded_engine_matches_serial(algorithm):
    graph = _mixed_gbreg()
    master = LaggedFibonacciRandom(0)
    jobs = [
        Job("g", AlgorithmSpec.make(algorithm), derive_seed(master, index),
            job_id=f"start{index}")
        for index in range(4)
    ]
    telemetry = Telemetry()
    parallel = Engine(jobs=2, telemetry=telemetry).run(jobs, {"g": graph})
    serial = Engine(jobs=1).run(jobs, {"g": graph})

    assert telemetry.count("shm_export") == 1
    assert telemetry.count("shm_attach_failed") == 0
    assert all(r.ok for r in parallel), [r.error for r in parallel]
    assert [r.cut for r in parallel] == [r.cut for r in serial]
    assert [r.side0 for r in parallel] == [r.side0 for r in serial]
