"""Seeded goldens and equivalence matrices for the partition kernels.

Every partition algorithm runs one kernel per heuristic over the graph's
CSR view, and its seeded behaviour is pinned three ways across graph
families (regular, sparse random, weighted/contracted, string labels)
and seeds:

* ``TestEquivalenceMatrix`` and ``test_sa_swap_goldens`` compare each run with
  the committed goldens in ``kernel_goldens.json``: cut, side-0 labels,
  pass gains, move counts, SA temperatures (as ``float.hex``) and a
  digest of the temperature trace.  The tests run under whatever
  ``REPRO_KERNEL`` backend is active, so CI replays them per backend.
* ``TestKernelBackendMatrix`` runs every backend in one process and
  compares the full result objects.
* ``TestObsEquivalenceMatrix`` does the same with instrumentation on
  and off.

The goldens were recorded with the label-keyed reference kernels that
preceded the CSR kernels; the CSR kernels reproduced them bit for bit
before those were retired.  Regenerate (only for a deliberate behaviour
change) with::

    PYTHONPATH=src python tests/partition/test_csr_equivalence.py --write
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.core.compaction import compact
from repro.core.matching import random_maximal_matching
from repro.core.pipeline import ckl, csa
from repro.graphs.generators import gbreg, gnp_with_degree
from repro.graphs.graph import Graph
from repro.kernels import numpy_available
from repro.partition.annealing import AnnealingSchedule, simulated_annealing
from repro.partition.fm import fiduccia_mattheyses
from repro.partition.kl import kernighan_lin
from repro.rng import LaggedFibonacciRandom

SCHEDULE = AnnealingSchedule(size_factor=2, max_temperatures=60)
BACKENDS = ("array",) + (("numpy",) if numpy_available() else ())
GOLDENS_PATH = Path(__file__).with_name("kernel_goldens.json")


def _gbreg_graph(seed):
    return gbreg(40, 4, 3, LaggedFibonacciRandom(seed)).graph


def _gnp_graph(seed):
    return gnp_with_degree(40, 2.5, LaggedFibonacciRandom(seed))


def _contracted_graph(seed):
    """A weighted graph (supervertex weights 2) from one compaction round."""
    rng = LaggedFibonacciRandom(seed)
    graph = gbreg(40, 4, 3, rng).graph
    return compact(graph, random_maximal_matching(graph, rng)).coarse


def _string_label_graph(seed):
    graph = _gbreg_graph(seed)
    relabeled = Graph()
    for v in graph.vertices():
        relabeled.add_vertex(f"v{v:03d}", graph.vertex_weight(v))
    for u, v, w in graph.edges():
        relabeled.add_edge(f"v{u:03d}", f"v{v:03d}", w)
    return relabeled


FAMILIES = {
    "gbreg": _gbreg_graph,
    "gnp": _gnp_graph,
    "contracted": _contracted_graph,
    "strings": _string_label_graph,
}
SEEDS = (0, 1, 2)


def _run_obs_both(monkeypatch, build, seed, run):
    """Run ``run(graph, seed)`` instrumented (REPRO_OBS=1), then bare."""
    monkeypatch.setenv("REPRO_OBS", "1")
    on_result = run(build(seed), seed)
    monkeypatch.setenv("REPRO_OBS", "0")
    off_result = run(build(seed), seed)
    return on_result, off_result


def _assert_bisections_equal(a, b):
    assert a.cut == b.cut
    assert a.assignment() == b.assignment()


def _assert_kl_like_equal(a, b):
    _assert_bisections_equal(a.bisection, b.bisection)
    assert a.initial_cut == b.initial_cut
    assert a.passes == b.passes
    assert a.pass_gains == b.pass_gains


def _assert_sa_equal(a, b):
    _assert_bisections_equal(a.bisection, b.bisection)
    assert a.initial_cut == b.initial_cut
    assert a.temperatures == b.temperatures
    assert a.moves_attempted == b.moves_attempted
    assert a.moves_accepted == b.moves_accepted
    assert a.initial_temperature == b.initial_temperature
    assert a.final_temperature == b.final_temperature
    assert a.temperature_trace == b.temperature_trace


def _digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


def _bisection_record(bisection) -> dict:
    return {
        "cut": bisection.cut,
        "side0": _digest(sorted(map(repr, bisection.side(0)))),
    }


def _kl_like_record(result, moves_attr: str) -> dict:
    return {
        **_bisection_record(result.bisection),
        "initial_cut": result.initial_cut,
        "passes": result.passes,
        "pass_gains": list(result.pass_gains),
        moves_attr: getattr(result, moves_attr),
    }


def _sa_record(result) -> dict:
    return {
        **_bisection_record(result.bisection),
        "initial_cut": result.initial_cut,
        "temperatures": result.temperatures,
        "moves_attempted": result.moves_attempted,
        "moves_accepted": result.moves_accepted,
        "initial_temperature": result.initial_temperature.hex(),
        "final_temperature": result.final_temperature.hex(),
        "trace": _digest(
            [(t.hex(), r.hex(), c) for t, r, c in result.temperature_trace]
        ),
    }


def _compacted_record(result, stage_record) -> dict:
    return {
        **_bisection_record(result.bisection),
        "projected_cut": result.projected_cut,
        "coarse": stage_record(result.coarse_result),
        "final": stage_record(result.final_result),
    }


#: algorithm -> (families it is pinned on, seeded run, result -> record)
GOLDEN_RUNS = {
    "kl": (
        tuple(FAMILIES),
        lambda g, s: kernighan_lin(g, rng=s),
        lambda r: _kl_like_record(r, "swaps"),
    ),
    "fm": (
        tuple(FAMILIES),
        lambda g, s: fiduccia_mattheyses(g, rng=s),
        lambda r: _kl_like_record(r, "moves"),
    ),
    "sa": (
        tuple(FAMILIES),
        lambda g, s: simulated_annealing(g, rng=s, schedule=SCHEDULE),
        _sa_record,
    ),
    "sa_swap": (
        ("gbreg", "contracted"),
        lambda g, s: simulated_annealing(
            g, rng=s, schedule=SCHEDULE, neighborhood="swap"
        ),
        _sa_record,
    ),
    "ckl": (
        tuple(FAMILIES),
        lambda g, s: ckl(g, rng=s),
        lambda r: _compacted_record(r, lambda k: _kl_like_record(k, "swaps")),
    ),
    "csa": (
        tuple(FAMILIES),
        lambda g, s: csa(g, rng=s, schedule=SCHEDULE),
        lambda r: _compacted_record(r, _sa_record),
    ),
}


def _golden_key(algorithm: str, family: str, seed: int) -> str:
    return f"{algorithm}/{family}/{seed}"


def _record(algorithm: str, family: str, seed: int) -> dict:
    _families, run, record = GOLDEN_RUNS[algorithm]
    return record(run(FAMILIES[family](seed), seed))


def _golden_cases() -> list[tuple[str, str, int]]:
    return [
        (algorithm, family, seed)
        for algorithm, (families, _run, _record) in GOLDEN_RUNS.items()
        for family in families
        for seed in SEEDS
    ]


def generate_goldens() -> dict:
    """Every golden record, keyed ``algorithm/family/seed``."""
    return {
        _golden_key(*case): _record(*case) for case in _golden_cases()
    }


def _load_goldens() -> dict:
    with open(GOLDENS_PATH, encoding="utf-8") as handle:
        return json.load(handle)["runs"]


GOLDENS = _load_goldens() if GOLDENS_PATH.exists() else {}


def _assert_golden(algorithm: str, family: str, seed: int) -> None:
    key = _golden_key(algorithm, family, seed)
    assert _record(algorithm, family, seed) == GOLDENS[key], key


@pytest.mark.parametrize("family", sorted(FAMILIES))
@pytest.mark.parametrize("seed", SEEDS)
class TestEquivalenceMatrix:
    """Every algorithm x family x seed reproduces its committed golden."""

    def test_kl(self, family, seed):
        _assert_golden("kl", family, seed)

    def test_fm(self, family, seed):
        _assert_golden("fm", family, seed)

    def test_sa(self, family, seed):
        _assert_golden("sa", family, seed)

    def test_ckl(self, family, seed):
        _assert_golden("ckl", family, seed)

    def test_csa(self, family, seed):
        _assert_golden("csa", family, seed)


@pytest.mark.parametrize("family", GOLDEN_RUNS["sa_swap"][0])
@pytest.mark.parametrize("seed", SEEDS)
def test_sa_swap_goldens(family, seed):
    _assert_golden("sa_swap", family, seed)


def test_goldens_cover_the_matrix():
    assert sorted(GOLDENS) == sorted(_golden_key(*c) for c in _golden_cases())


def _run_backends(monkeypatch, build, seed, run):
    """Run ``run(graph, seed)`` once per kernel backend, in BACKENDS order."""
    results = []
    for backend in BACKENDS:
        monkeypatch.setenv("REPRO_KERNEL", backend)
        results.append(run(build(seed), seed))
    return results


@pytest.mark.parametrize("family", sorted(FAMILIES))
@pytest.mark.parametrize("seed", SEEDS)
class TestKernelBackendMatrix:
    """array / numpy kernel backends: one answer, N engines.

    ``REPRO_KERNEL`` picks the backend explicitly; every backend must
    agree on the full result object, counters and traces included.
    """

    def test_kl(self, monkeypatch, family, seed):
        first, *rest = _run_backends(
            monkeypatch, FAMILIES[family], seed,
            lambda g, s: kernighan_lin(g, rng=s),
        )
        for other in rest:
            _assert_kl_like_equal(first, other)
            assert first.swaps == other.swaps

    def test_fm(self, monkeypatch, family, seed):
        first, *rest = _run_backends(
            monkeypatch, FAMILIES[family], seed,
            lambda g, s: fiduccia_mattheyses(g, rng=s),
        )
        for other in rest:
            _assert_kl_like_equal(first, other)
            assert first.moves == other.moves

    def test_sa(self, monkeypatch, family, seed):
        first, *rest = _run_backends(
            monkeypatch, FAMILIES[family], seed,
            lambda g, s: simulated_annealing(g, rng=s, schedule=SCHEDULE),
        )
        for other in rest:
            _assert_sa_equal(first, other)


@pytest.mark.parametrize("family", sorted(FAMILIES))
@pytest.mark.parametrize("seed", SEEDS)
class TestObsEquivalenceMatrix:
    """REPRO_OBS=1 vs REPRO_OBS=0: instrumentation must not perturb results.

    The observability layer (spans, counters, histograms) promises to be
    decision-free — no RNG draws, no iteration reorder — so every result
    object must match seed-for-seed with instrumentation on and off.
    """

    def test_kl(self, monkeypatch, family, seed):
        on, off = _run_obs_both(
            monkeypatch, FAMILIES[family], seed,
            lambda g, s: kernighan_lin(g, rng=s),
        )
        _assert_kl_like_equal(on, off)
        assert on.swaps == off.swaps

    def test_fm(self, monkeypatch, family, seed):
        on, off = _run_obs_both(
            monkeypatch, FAMILIES[family], seed,
            lambda g, s: fiduccia_mattheyses(g, rng=s),
        )
        _assert_kl_like_equal(on, off)
        assert on.moves == off.moves

    def test_sa(self, monkeypatch, family, seed):
        on, off = _run_obs_both(
            monkeypatch, FAMILIES[family], seed,
            lambda g, s: simulated_annealing(g, rng=s, schedule=SCHEDULE),
        )
        _assert_sa_equal(on, off)

    def test_ckl(self, monkeypatch, family, seed):
        on, off = _run_obs_both(
            monkeypatch, FAMILIES[family], seed, lambda g, s: ckl(g, rng=s)
        )
        _assert_bisections_equal(on.bisection, off.bisection)
        assert on.projected_cut == off.projected_cut
        _assert_kl_like_equal(on.coarse_result, off.coarse_result)
        _assert_kl_like_equal(on.final_result, off.final_result)

    def test_csa(self, monkeypatch, family, seed):
        on, off = _run_obs_both(
            monkeypatch, FAMILIES[family], seed,
            lambda g, s: csa(g, rng=s, schedule=SCHEDULE),
        )
        _assert_bisections_equal(on.bisection, off.bisection)
        assert on.projected_cut == off.projected_cut
        _assert_sa_equal(on.coarse_result, off.coarse_result)
        _assert_sa_equal(on.final_result, off.final_result)


class TestTraceOptOut:
    def test_sa_record_trace_off_same_walk(self):
        """Disabling the trace must not perturb the walk itself."""
        graph = _gbreg_graph(0)
        with_trace = simulated_annealing(graph, rng=0, schedule=SCHEDULE)
        without = simulated_annealing(
            _gbreg_graph(0), rng=0, schedule=SCHEDULE, record_trace=False
        )
        assert without.temperature_trace == []
        assert with_trace.temperature_trace  # default stays on
        assert without.bisection.assignment() == with_trace.bisection.assignment()
        assert without.moves_attempted == with_trace.moves_attempted
        assert without.moves_accepted == with_trace.moves_accepted

    def test_sa_record_trace_off_swap_neighborhood(self):
        result = simulated_annealing(
            _gbreg_graph(0), rng=0, schedule=SCHEDULE, record_trace=False,
            neighborhood="swap",
        )
        assert result.temperature_trace == []

    def test_csa_forwards_record_trace(self):
        result = csa(_gbreg_graph(0), rng=0, schedule=SCHEDULE, record_trace=False)
        assert result.coarse_result.temperature_trace == []
        assert result.final_result.temperature_trace == []


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: {sys.argv[0]} --write")
    with open(GOLDENS_PATH, "w", encoding="utf-8") as handle:
        json.dump(
            {"schema": 1, "runs": generate_goldens()}, handle, indent=1, sort_keys=True
        )
        handle.write("\n")
    print(f"wrote {GOLDENS_PATH}")
