"""The engine's parallel path: worker pool, shared-memory graphs, shipping.

:meth:`Engine.run <repro.engine.executor.Engine.run>` imports this module
only when a batch goes parallel, so a serial run compiles none of it and
loads neither ``multiprocessing`` nor ``concurrent.futures``,
:mod:`repro.graphs.shm` or the observability shipper.  When it is
imported, it is imported in the parent, before the pool forks, so a forked
worker inherits every module it runs (see :func:`_import_worker_path`).

Each graph a batch needs is exported once as a compiled CSR segment and
the workers receive only its name (see :mod:`repro.graphs.shm`); a graph
that cannot be exported is shipped whole through the pool initializer.
Each worker result carries its observability shipment back to the parent.
"""

from __future__ import annotations

import multiprocessing
from collections.abc import Mapping, Sequence
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor, as_completed
from dataclasses import replace
from typing import TYPE_CHECKING, Any

from ..graphs.graph import Graph
from ..graphs.shm import SharedGraphSegment, ShmAttachError, ShmGraphRef, shm_enabled
from ..obs import counter, current_run, histogram, obs_enabled
from ..obs.clock import monotonic_time
from ..obs.shipper import collect_shipment, merge_shipment
from .executor import _pool_start_method, execute_job
from .job import Job, JobResult
from .registry import build_algorithm
from .telemetry import Telemetry

if TYPE_CHECKING:
    from .executor import Engine

__all__ = ["run_parallel"]

# -- worker-process plumbing -------------------------------------------------------

_WORKER_GRAPHS: Mapping[str, Any] = {}
_WORKER_ATTACHED: dict[str, Any] = {}

#: Error prefix marking "the worker could not attach the shm segment";
#: the parent re-runs such jobs serially on the pickled graph instead of
#: failing the batch.
_SHM_ATTACH_PREFIX = "shm-attach: "


def _worker_init(graphs: Mapping[str, Any]) -> None:
    global _WORKER_GRAPHS, _WORKER_ATTACHED
    _WORKER_GRAPHS = graphs
    _WORKER_ATTACHED = {}


def _close_worker_segments() -> None:
    """Detach every segment this worker attached (atexit, worker side)."""
    for segment, _graph in _WORKER_ATTACHED.values():
        segment.close()
    _WORKER_ATTACHED.clear()


def _resolve_worker_graph(key: str) -> Any:
    """The worker-side graph for ``key``, attaching shm refs once.

    The segment object is cached alongside the rebuilt graph — it must
    outlive every zero-copy view into it — and detached via ``atexit``
    so worker shutdown is quiet and deterministic.
    """
    entry = _WORKER_GRAPHS[key]
    if isinstance(entry, ShmGraphRef):
        cached = _WORKER_ATTACHED.get(entry.name)
        if cached is None:
            if not _WORKER_ATTACHED:
                import atexit

                atexit.register(_close_worker_segments)
            segment = SharedGraphSegment.attach(entry.name)
            try:
                rebuilt = segment.graph()
            except Exception:
                # Rebuild failures after a successful attach must not
                # leak the mapping: the parent retries this job serially
                # and the worker keeps serving other jobs.
                segment.close()
                raise
            cached = (segment, rebuilt)
            _WORKER_ATTACHED[entry.name] = cached
        return cached[1]
    return entry


def _worker_run(job: Job) -> JobResult:
    shared = isinstance(_WORKER_GRAPHS.get(job.graph_key), ShmGraphRef)
    compiles = getattr(counter("csr_compiles_total"), "value", 0)
    # Everything this job does in the worker — shm attach included — is
    # collected as a registry delta plus span records and shipped back on
    # the result, so the parent's ledger covers the whole fleet.  Deltas
    # (not absolutes) make this correct under both fork and spawn: a
    # forked worker's inherited counter baselines cancel out.
    shipment: dict[str, Any] = {}
    with collect_shipment(shipment):
        try:
            graph = _resolve_worker_graph(job.graph_key)
        except ShmAttachError as exc:
            # No shipment on attach failure: the job reruns serially in
            # the parent and would otherwise be double-counted.
            return JobResult(
                job_id=job.job_id,
                graph_key=job.graph_key,
                algorithm=job.algorithm_name(),
                seed=job.seed,
                status="failed",
                cut=None,
                side0=(),
                seconds=0.0,
                attempts=0,
                error=f"{_SHM_ATTACH_PREFIX}{exc}",
                tags=job.tags,
            )
        result = execute_job(job, graph)
    if shared:
        # Proof obligation for the compile-once contract: how many CSR
        # compiles this job triggered in its worker (should be zero).
        delta = getattr(counter("csr_compiles_total"), "value", 0) - compiles
        result.counters["worker_csr_compiles"] = delta
    if shipment:
        result = replace(result, obs=shipment)
    return result


# -- parent side ---------------------------------------------------------------------


def _import_worker_path(jobs: Sequence[Job]) -> None:
    """Import, in the parent, every module a pool worker will run.

    A forked worker inherits the parent's modules, but one it imports
    itself is compiled again in every worker of every batch, because each
    :meth:`Engine.run` forks a fresh pool.  This module's own imports
    bring the pool, shm and shipping code; the selected kernel backend and
    each job's algorithm are loaded here.
    """
    from ..kernels import kernel_backend

    kernel_backend()  # imports numpy when REPRO_KERNEL=numpy selects it
    for spec in dict.fromkeys(job.spec() for job in jobs):
        try:
            build_algorithm(spec)
        except Exception:  # noqa: BLE001 - the worker fails it again, and reports it
            continue


def _make_pool(workers: int, graphs: Mapping[str, Any]):
    """Create the process pool (separated out so tests can break it)."""
    context = multiprocessing.get_context(_pool_start_method())
    return ProcessPoolExecutor(
        max_workers=workers,
        mp_context=context,
        initializer=_worker_init,
        initargs=(graphs,),
    )


def run_parallel(
    engine: Engine,
    pending: list[tuple[int, Job, str | None]],
    graphs: Mapping[str, Any],
    results: list[JobResult | None],
) -> list[tuple[int, Job, str | None]]:
    """Run ``pending`` on a fresh worker pool; returns the jobs left to run serially.

    Those are all of ``pending`` when the pool cannot be created, the
    unfinished ones when it breaks mid-batch, and any whose worker could
    not attach its graph segment.  Every exported segment is unlinked
    before this returns or raises.
    """
    _import_worker_path([job for _, job, _ in pending])
    telemetry = engine.telemetry
    segments: dict[str, SharedGraphSegment] = {}
    table = _share_graphs(telemetry, {job.graph_key for _, job, _ in pending},
                          graphs, segments)
    workers = min(engine.jobs, len(pending))
    try:
        pool = _make_pool(workers, table)
    except Exception as exc:  # noqa: BLE001 - degrade, don't die
        telemetry.emit("pool_unavailable", error=f"{type(exc).__name__}: {exc}")
        counter("engine_pool_unavailable_total").inc()
        counter("engine_serial_fallbacks_total").inc()
        _release_segments(telemetry, segments)
        return pending
    telemetry.emit("pool_created", method=_pool_start_method(), workers=workers)
    try:
        return _run_parallel(engine, pool, pending, results)
    finally:
        # Unconditional teardown — normal exit, broken pool, or a
        # KeyboardInterrupt mid-batch must all leave /dev/shm clean.
        _release_segments(telemetry, segments)


def _share_graphs(
    telemetry: Telemetry,
    needed: set[str],
    graphs: Mapping[str, Any],
    segments: dict[str, SharedGraphSegment],
) -> dict[str, Any]:
    """The worker graph table: shm refs where possible, graphs otherwise.

    Exported segments are recorded in ``segments`` (keyed by graph
    key) for the caller to release; a failed export falls back to
    shipping that graph whole, exactly as before shm existed.
    """
    table: dict[str, Any] = {}
    for key in sorted(needed, key=str):
        graph = graphs[key]
        segment = None
        if shm_enabled() and isinstance(graph, Graph):
            try:
                segment = SharedGraphSegment.create(graph)
            except Exception as exc:  # noqa: BLE001 - unshareable: ship whole
                telemetry.emit(
                    "shm_export_failed",
                    graph_key=key,
                    error=f"{type(exc).__name__}: {exc}",
                )
        if segment is None:
            table[key] = graph
            continue
        segments[key] = segment
        table[key] = ShmGraphRef(segment.name)
        telemetry.emit(
            "shm_export",
            graph_key=key,
            segment=segment.name,
            bytes=segment.size,
        )
        counter("engine_shm_exports_total").inc()
    return table


def _release_segments(
    telemetry: Telemetry, segments: dict[str, SharedGraphSegment]
) -> None:
    """Close and unlink every exported segment (idempotent)."""
    while segments:
        key, segment = segments.popitem()
        segment.close()
        segment.unlink()
        telemetry.emit("shm_unlink", graph_key=key, segment=segment.name)


def _absorb_shipment(
    telemetry: Telemetry, result: JobResult, slots: dict[int, int]
) -> JobResult:
    """Merge a worker result's observability shipment, then strip it.

    The shipping worker's pid maps to a stable per-batch slot number
    (first-seen order), which becomes the ``worker=<slot>`` label on
    attributed series and the exporter's timeline lane.  Shipped span
    records additionally land in the batch telemetry sink so a single
    JSONL file feeds ``repro-bisect trace export``.
    """
    shipment = result.obs
    if not shipment:
        return result
    pid = shipment.get("pid", 0)
    slot = slots.setdefault(pid, len(slots))
    merge_shipment(shipment, slot)
    # When the run-context sink and the telemetry sink are the same
    # file (the CLI's --ledger + --telemetry wiring), merge_shipment
    # already wrote the records there; don't write them twice.
    run = current_run()
    if telemetry.jsonl_path is not None and not (
        run is not None and run.jsonl_path == telemetry.jsonl_path
    ):
        for record in shipment.get("spans", ()):
            telemetry.write_record(dict(record, worker=slot))
    if obs_enabled():
        counter("engine_worker_jobs_total", worker=str(slot)).inc()
        counter("engine_worker_busy_seconds_total", worker=str(slot)).inc(
            max(0.0, result.seconds)
        )
    return replace(result, obs=None)


def _run_parallel(
    engine: Engine,
    pool,
    pending: list[tuple[int, Job, str | None]],
    results: list[JobResult | None],
) -> list[tuple[int, Job, str | None]]:
    """Run ``pending`` on ``pool``; returns jobs still needing serial runs."""
    telemetry = engine.telemetry
    fallback: list[tuple[int, Job, str | None]] = []
    queue_wait = histogram("engine_queue_wait_seconds") if obs_enabled() else None
    slots: dict[int, int] = {}  # worker pid -> stable slot, first-seen order
    try:
        with pool:
            futures = {}
            submitted = {}
            for index, job, key in pending:
                telemetry.emit("job_queued", job.job_id, mode="parallel")
                future = pool.submit(_worker_run, job)
                futures[future] = (index, job, key)
                submitted[future] = monotonic_time()
            for future in as_completed(futures):
                index, job, key = futures[future]
                result = _absorb_shipment(telemetry, future.result(), slots)
                if (
                    result.status == "failed"
                    and result.error is not None
                    and result.error.startswith(_SHM_ATTACH_PREFIX)
                ):
                    # The worker could not map the segment (stale name,
                    # shm limits): degrade this job to the serial
                    # pickled-graph path — same seed, same result.
                    telemetry.emit(
                        "shm_attach_failed", job.job_id, error=result.error
                    )
                    counter("engine_shm_attach_failed_total").inc()
                    fallback.append((index, job, key))
                    continue
                if queue_wait is not None:
                    # Turnaround minus compute approximates time spent
                    # waiting for a worker slot.
                    wait = monotonic_time() - submitted[future] - result.seconds
                    queue_wait.observe(max(0.0, wait))
                results[index] = result
                engine._store(key, result)
    except (BrokenExecutor, OSError) as exc:
        # A worker died (or the pool broke mid-flight): finish the
        # unfinished jobs serially rather than failing the batch.
        # (Jobs already queued for shm-attach fallback have no result
        # either, so this sweep subsumes them.)
        telemetry.emit("pool_broken", error=f"{type(exc).__name__}: {exc}")
        counter("engine_pool_broken_total").inc()
        return [
            (index, job, key)
            for index, job, key in pending
            if results[index] is None
        ]
    return fallback
