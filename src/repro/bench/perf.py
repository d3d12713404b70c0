"""Kernel-backend performance snapshots (the ``repro-bisect perf`` command).

Each paper workload (``Gbreg``/``Gnp`` at 2n = 500/2000/5000) is run
through KL, FM, SA, CKL, and CSA once per kernel backend from the same
seed — ``array`` (the stdlib CSR kernels) and ``numpy`` when available —
and the per-algorithm wall time, cut, move count, and moves/second land
in a ``BENCH_<n>.json`` snapshot.  The cuts and move counts from all
backends must agree exactly; a mismatch marks the whole snapshot failed,
because it means a backend changed behaviour.

At the large sizes the snapshot also carries a *streaming* case: a big
``Gbreg`` run as an SA replica ensemble through the execution engine,
once serially and once over a worker pool with shared-memory CSR
sharding, recording the shm export/attach telemetry alongside the usual
cut agreement (see :mod:`repro.graphs.shm`).

:func:`diff_snapshots` is an exact behaviour gate, not a timing gate:
a cell fails when its seeded ``cut`` or ``moves`` differs from the
baseline's.  The committed ``BENCH_<n>.json`` baselines therefore act as
paper-scale goldens.  Timings are recorded for reading, and timing
regressions are left to the repository benchmark (``perfbench/``).

SA and CSA run with ``record_trace=False``: the harness times the walk,
not the diagnostic bookkeeping.
"""

from __future__ import annotations

import json
import os
import time
from collections.abc import Callable, Iterable
from contextlib import contextmanager
from dataclasses import dataclass

from ..core.pipeline import CompactedResult, ckl, csa
from ..graphs.csr import csr_view
from ..graphs.generators import gbreg, gnp_with_degree
from ..graphs.graph import Graph
from ..kernels import numpy_available
from ..obs import obs_enabled
from ..partition.annealing import AnnealingSchedule, simulated_annealing
from ..partition.fm import fiduccia_mattheyses
from ..partition.kl import kernighan_lin
from ..rng import resolve_rng
from .tables import render_generic_table

__all__ = [
    "PERF_ALGORITHMS",
    "PERF_SIZES",
    "SMALL_SIZES",
    "STREAMING_SIZE_FLOOR",
    "PerfCase",
    "SNAPSHOT_SCHEMA",
    "diff_snapshots",
    "load_snapshot",
    "measure_size",
    "measure_streaming",
    "perf_cases",
    "render_diff",
    "render_snapshot",
    "snapshot_path",
    "write_snapshot",
]

#: Schema 3 dropped the reference-kernel columns (``dict_*``, ``speedup*``)
#: and keeps per-backend ``<backend>_seconds`` / ``<backend>_moves_per_sec``;
#: schema 1 and 2 snapshots (committed baselines) still load and diff.
SNAPSHOT_SCHEMA = 3
_SUPPORTED_SCHEMAS = (1, 2, 3)

PERF_ALGORITHMS = ("kl", "fm", "sa", "ckl", "csa")

#: Sizes at and above this get the streaming shared-memory case by default.
STREAMING_SIZE_FLOOR = 5000

# The paper's random-graph sizes (2n): Section VI uses 500-vertex graphs
# for the dense sweeps and 2000/5000 for the headline tables.
PERF_SIZES = (500, 2000, 5000)
SMALL_SIZES = (500, 2000)

_GBREG_DEGREE = 3
_GNP_DEGREE = 2.5


@dataclass(frozen=True)
class PerfCase:
    """One timed workload: a label and a seeded graph builder."""

    label: str
    build: Callable[[object], Graph]


def _gbreg_width(two_n: int) -> int:
    """The planted width used at this size (16, parity-fixed for d=3)."""
    b = 16
    return b if ((two_n // 2) * _GBREG_DEGREE - b) % 2 == 0 else b + 1


def perf_cases(two_n: int) -> list[PerfCase]:
    """The two paper families timed at size ``two_n``."""
    b = _gbreg_width(two_n)
    return [
        PerfCase(
            label=f"Gbreg({two_n},{b},{_GBREG_DEGREE})",
            build=lambda rng, two_n=two_n, b=b: gbreg(two_n, b, _GBREG_DEGREE, rng).graph,
        ),
        PerfCase(
            label=f"Gnp({two_n},deg{_GNP_DEGREE})",
            build=lambda rng, two_n=two_n: gnp_with_degree(two_n, _GNP_DEGREE, rng),
        ),
    ]


@contextmanager
def _forced_backend(backend: str):
    """Pin ``REPRO_KERNEL`` to one backend (restores prior env on exit)."""
    prior = os.environ.get("REPRO_KERNEL")
    os.environ["REPRO_KERNEL"] = backend
    try:
        yield
    finally:
        if prior is None:
            os.environ.pop("REPRO_KERNEL", None)
        else:
            os.environ["REPRO_KERNEL"] = prior


def _snapshot_backends() -> tuple[str, ...]:
    """The backends this host can measure (``numpy`` only if importable)."""
    backends = ["array"]
    if numpy_available():
        backends.append("numpy")
    return tuple(backends)


def _move_count(result) -> int:
    """A per-algorithm progress counter, for moves/second.

    KL counts swaps, FM counts moves, SA counts attempted moves; the
    compacted pipelines sum their coarse and fine stages.
    """
    if isinstance(result, CompactedResult):
        return _move_count(result.coarse_result) + _move_count(result.final_result)
    for attr in ("swaps", "moves", "moves_attempted"):
        value = getattr(result, attr, None)
        if value is not None:
            return value
    return 0


def _run_algorithm(name: str, graph: Graph, seed: int, sa_size_factor: int):
    """One seeded run; returns ``(seconds, cut, moves)``."""
    rng = resolve_rng(seed)
    schedule = AnnealingSchedule(size_factor=sa_size_factor)
    start = time.perf_counter()
    if name == "kl":
        result = kernighan_lin(graph, rng=rng)
    elif name == "fm":
        result = fiduccia_mattheyses(graph, rng=rng)
    elif name == "sa":
        result = simulated_annealing(
            graph, rng=rng, schedule=schedule, record_trace=False
        )
    elif name == "ckl":
        result = ckl(graph, rng=rng)
    elif name == "csa":
        result = csa(graph, rng=rng, schedule=schedule, record_trace=False)
    else:
        raise ValueError(f"unknown perf algorithm {name!r}")
    seconds = time.perf_counter() - start
    return seconds, result.bisection.cut, _move_count(result)


def _best_run(name, graph, seed, sa_size_factor, repeats):
    """Repeat a run, keeping the minimum wall time (cut/moves are seeded,
    so they are identical across repeats)."""
    best_seconds, cut, moves = _run_algorithm(name, graph, seed, sa_size_factor)
    for _ in range(repeats - 1):
        seconds, _, _ = _run_algorithm(name, graph, seed, sa_size_factor)
        best_seconds = min(best_seconds, seconds)
    return best_seconds, cut, moves


def measure_size(
    two_n: int,
    seed: int = 0,
    sa_size_factor: int = 4,
    algorithms: Iterable[str] = PERF_ALGORITHMS,
    repeats: int = 1,
    streaming: bool | None = None,
) -> dict:
    """Measure every case x algorithm x backend cell at one size.

    The CSR view is compiled once per case *outside* the timed region
    (recorded as ``csr_compile_seconds``): in real use one compile is
    amortized over a whole run/table sweep, and charging it to whichever
    algorithm happened to go first would distort per-algorithm timings.

    ``streaming=None`` includes the shared-memory streaming case exactly
    when ``two_n >= STREAMING_SIZE_FLOOR``.
    """
    backends = _snapshot_backends()
    cases = []
    ok = True
    for case in perf_cases(two_n):
        graph = case.build(resolve_rng(seed))
        start = time.perf_counter()
        csr_view(graph)
        compile_seconds = time.perf_counter() - start
        cells: dict[str, dict] = {}
        for name in algorithms:
            runs: dict[str, tuple[float, int, int]] = {}
            for backend in backends:
                with _forced_backend(backend):
                    runs[backend] = _best_run(
                        name, graph, seed, sa_size_factor, repeats
                    )
            _seconds, cut, moves = runs["array"]
            cuts_match = all(
                (c, m) == (cut, moves) for _s, c, m in runs.values()
            )
            ok = ok and cuts_match
            cell: dict = {
                "cut": cut,
                "moves": moves,
                "cuts_match": cuts_match,
                "backends": list(backends),
            }
            for backend, (seconds, _c, _m) in runs.items():
                cell[f"{backend}_seconds"] = seconds
                cell[f"{backend}_moves_per_sec"] = (
                    moves / seconds if seconds > 0 else 0.0
                )
            cells[name] = cell
        cases.append(
            {
                "label": case.label,
                "vertices": graph.num_vertices,
                "edges": graph.num_edges,
                "csr_compile_seconds": compile_seconds,
                "algorithms": cells,
            }
        )
    snapshot = {
        "schema": SNAPSHOT_SCHEMA,
        "size": two_n,
        "seed": seed,
        "sa_size_factor": sa_size_factor,
        "repeats": repeats,
        "backends": list(backends),
        # Whether REPRO_OBS instrumentation was live during the measurement.
        # Instrumented and uninstrumented timings are not commensurable, so
        # diff_snapshots refuses to mix them.
        "obs": obs_enabled(),
        "ok": ok,
        "cases": cases,
    }
    if streaming is None:
        streaming = two_n >= STREAMING_SIZE_FLOOR
    if streaming:
        stream = measure_streaming(two_n, seed=seed)
        snapshot["streaming"] = stream
        snapshot["ok"] = ok and stream["cuts_match"]
    return snapshot


def measure_streaming(
    two_n: int,
    seed: int = 0,
    replicas: int = 4,
    jobs: int = 2,
    sa_size_factor: int = 1,
) -> dict:
    """The streaming case: a large Gbreg SA ensemble over shm sharding.

    Runs the same replica set twice — serial in-process, then through a
    worker pool where the compiled CSR is exported to shared memory and
    attached zero-copy — and checks the cuts agree bit for bit.  The
    worker-side ``worker_csr_compiles`` counters prove the compile-once
    contract (they must sum to zero).

    When instrumented (``REPRO_OBS``), the snapshot also records
    ``worker_slots`` — how many distinct worker processes shipped
    ``engine_worker_jobs_total{worker=...}`` increments during the shared
    run — proving the fleet attribution pipeline ran through the harness.
    """
    from ..engine.executor import Engine
    from ..engine.replicas import sa_replicas
    from ..engine.telemetry import Telemetry

    b = _gbreg_width(two_n)
    graph = gbreg(two_n, b, _GBREG_DEGREE, resolve_rng(seed)).graph
    start = time.perf_counter()
    serial = sa_replicas(
        graph, replicas, seed=seed, size_factor=sa_size_factor, jobs=1
    )
    serial_seconds = time.perf_counter() - start

    telemetry = Telemetry()
    engine = Engine(jobs=jobs, telemetry=telemetry)
    counters_before: dict[str, float] = {}
    if obs_enabled():
        from ..obs import REGISTRY

        counters_before = dict(REGISTRY.snapshot()["counters"])
    start = time.perf_counter()
    shared = sa_replicas(
        graph, replicas, seed=seed, size_factor=sa_size_factor, engine=engine
    )
    shared_seconds = time.perf_counter() - start
    worker_slots = 0
    if obs_enabled():
        from ..obs import REGISTRY
        from ..obs.shipper import parse_series

        slots: set[str] = set()
        for series, value in REGISTRY.snapshot()["counters"].items():
            name, labels = parse_series(series)
            if name != "engine_worker_jobs_total" or "worker" not in labels:
                continue
            if value > counters_before.get(series, 0):
                slots.add(labels["worker"])
        worker_slots = len(slots)
    return {
        "label": f"Gbreg({two_n},{b},{_GBREG_DEGREE}) SA x{replicas}",
        "vertices": graph.num_vertices,
        "edges": graph.num_edges,
        "replicas": replicas,
        "jobs": jobs,
        "sa_size_factor": sa_size_factor,
        "serial_seconds": serial_seconds,
        "shared_seconds": shared_seconds,
        "shm_exports": telemetry.count("shm_export"),
        "shm_unlinks": telemetry.count("shm_unlink"),
        "worker_csr_compiles": sum(
            r.counters.get("worker_csr_compiles", 0) for r in shared.results
        ),
        "worker_slots": worker_slots,
        "cuts": list(serial.cuts),
        "cuts_match": serial.cuts == shared.cuts,
    }


def snapshot_path(directory: str, two_n: int) -> str:
    return os.path.join(directory, f"BENCH_{two_n}.json")


def write_snapshot(snapshot: dict, directory: str) -> str:
    """Write ``BENCH_<n>.json`` under ``directory``; returns the path."""
    os.makedirs(directory, exist_ok=True)
    path = snapshot_path(directory, snapshot["size"])
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(snapshot, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def load_snapshot(path: str) -> dict:
    with open(path, encoding="utf-8") as handle:
        snapshot = json.load(handle)
    schema = snapshot.get("schema")
    if schema not in _SUPPORTED_SCHEMAS:
        raise ValueError(
            f"{path}: unsupported perf snapshot schema {schema!r} "
            f"(expected one of {_SUPPORTED_SCHEMAS})"
        )
    return snapshot


def diff_snapshots(old: dict, new: dict) -> dict:
    """Compare two snapshots cell by cell on their seeded ``cut`` and ``moves``.

    A cell whose cut or move count differs from the baseline is a
    mismatch and fails the diff: from the same seed, every kernel must
    make the same decisions.  Cells present in only one snapshot are
    listed under ``missing`` and do not fail the diff (workloads evolve).

    Raises ``ValueError`` when the snapshots were measured from a
    different ``seed`` or ``sa_size_factor`` (their cuts answer different
    questions), or one with ``REPRO_OBS`` instrumentation on and the
    other with it off.  Snapshots predating the ``obs`` key (legacy
    baselines) compare against anything.
    """
    for key in ("seed", "sa_size_factor"):
        if old.get(key) != new.get(key):
            raise ValueError(
                f"refusing to diff perf snapshots: {key} {old.get(key)!r} "
                f"vs {new.get(key)!r}"
            )
    old_obs = old.get("obs")
    new_obs = new.get("obs")
    if old_obs is not None and new_obs is not None and old_obs != new_obs:
        raise ValueError(
            "refusing to diff perf snapshots: one was measured with REPRO_OBS "
            "instrumentation enabled and the other with it disabled"
        )
    old_cells = _cells(old)
    new_cells = _cells(new)
    mismatches = []
    compared = []
    for key in sorted(old_cells.keys() & new_cells.keys()):
        old_cell, new_cell = old_cells[key], new_cells[key]
        entry = {
            "label": key[0],
            "algorithm": key[1],
            "old_cut": old_cell["cut"],
            "new_cut": new_cell["cut"],
            "old_moves": old_cell["moves"],
            "new_moves": new_cell["moves"],
        }
        compared.append(entry)
        if (entry["old_cut"], entry["old_moves"]) != (
            entry["new_cut"], entry["new_moves"]
        ):
            mismatches.append(entry)
    missing = [
        {"label": label, "algorithm": name}
        for label, name in sorted(old_cells.keys() ^ new_cells.keys())
    ]
    return {
        "compared": compared,
        "mismatches": mismatches,
        "missing": missing,
        "ok": not mismatches,
    }


def _cells(snapshot: dict) -> dict[tuple[str, str], dict]:
    return {
        (case["label"], name): cell
        for case in snapshot["cases"]
        for name, cell in case["algorithms"].items()
    }


def render_snapshot(snapshot: dict) -> str:
    """Human-readable table for one snapshot (any supported schema)."""

    def fmt(seconds: float | None) -> str:
        return "-" if seconds is None else f"{seconds:.3f}"

    rows = []
    for case in snapshot["cases"]:
        for name, cell in case["algorithms"].items():
            array_seconds = cell.get("array_seconds", cell.get("csr_seconds"))
            rows.append(
                [
                    case["label"],
                    name,
                    fmt(array_seconds),
                    fmt(cell.get("numpy_seconds")),
                    cell["cut"],
                    cell["moves"],
                    "yes" if cell["cuts_match"] else "NO",
                ]
            )
    title = (
        f"perf 2n={snapshot['size']} seed={snapshot['seed']} "
        f"sa_size_factor={snapshot['sa_size_factor']}"
    )
    lines = [
        render_generic_table(
            ["graph", "algo", "array(s)", "numpy(s)", "cut", "moves", "match"],
            rows,
            title=title,
        )
    ]
    stream = snapshot.get("streaming")
    if stream is not None:
        lines.append(
            f"streaming {stream['label']}: serial {stream['serial_seconds']:.3f}s, "
            f"shm x{stream['jobs']} workers {stream['shared_seconds']:.3f}s, "
            f"{stream['shm_exports']} export(s), "
            f"{stream['worker_csr_compiles']} worker compile(s), "
            f"cuts {'match' if stream['cuts_match'] else 'DIVERGE'}"
        )
    return "\n".join(lines)


def render_diff(report: dict) -> str:
    """Human-readable table for a :func:`diff_snapshots` report."""
    rows = [
        [
            entry["label"],
            entry["algorithm"],
            f"{entry['old_cut']} / {entry['old_moves']}",
            f"{entry['new_cut']} / {entry['new_moves']}",
            "MISMATCH" if entry in report["mismatches"] else "ok",
        ]
        for entry in report["compared"]
    ]
    for entry in report["missing"]:
        rows.append([entry["label"], entry["algorithm"], "-", "-", "missing"])
    lines = [
        render_generic_table(
            ["graph", "algo", "old cut / moves", "new cut / moves", "status"],
            rows,
            title="perf diff (seeded cut and moves must match exactly)",
        )
    ]
    if report["mismatches"]:
        lines.append(
            f"{len(report['mismatches'])} cell(s) changed their seeded cut or moves"
        )
    else:
        lines.append("all seeded cuts and moves match")
    return "\n".join(lines)
