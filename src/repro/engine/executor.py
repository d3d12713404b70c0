"""The job execution engine: worker pool, timeouts, retries, cache, telemetry.

:class:`Engine` runs declarative :class:`~repro.engine.job.Job` specs and
returns :class:`~repro.engine.job.JobResult` values **in submission
order**.  Design invariants:

* **Determinism** — a job's outcome depends only on its spec.  Workers
  reconstruct the per-job generator as ``LaggedFibonacciRandom(seed)``,
  which is bitwise-identical to :func:`repro.rng.spawn` in the parent, so
  ``jobs=1`` and ``jobs=N`` produce the same cuts and partitions.
* **Robustness** — each attempt runs under an optional wall-clock
  deadline (SIGALRM-based, covering pure-Python compute); a failed or
  timed-out attempt is retried with a fresh seed derived from
  ``(seed, attempt)``; exhaustion yields a ``status="failed"`` result
  instead of an exception, so one bad job never sinks a batch.
* **Graceful degradation** — when the pool cannot be created (restricted
  environments, missing semaphores) or the algorithm is an unpicklable
  in-process callable, the engine falls back to serial execution and
  records the downgrade in telemetry.

Graphs are passed to ``run`` in a separate ``graphs`` table keyed by
``Job.graph_key`` and shipped to each worker once via the pool
initializer, not once per job.  When shared-memory sharding is on (the
default — see :mod:`repro.graphs.shm`), a :class:`Graph` is exported
once as a compiled CSR segment and the workers receive only its name:
one compile per graph per batch, zero-copy array access in every
worker, and a per-worker pickle only as the fallback path.

Serial runs (``jobs=1``) import none of the pool machinery: it lives in
:mod:`repro.engine.parallel`, which loads ``multiprocessing``,
``concurrent.futures``, :mod:`repro.graphs.shm` and the observability
shipper only when a batch goes parallel, and then in the parent, before
the pool forks.  The result cache (:mod:`repro.engine.cache`) loads only
when one is configured.
"""

from __future__ import annotations

import os
import signal
import threading
from collections.abc import Mapping, Sequence
from dataclasses import replace
from typing import TYPE_CHECKING, Any

from ..graphs.graph import graph_fingerprint, vertex_token
from ..obs import counter, gauge, obs_enabled, span
from ..obs.clock import monotonic_time
from ..rng import LaggedFibonacciRandom
from .job import Job, JobResult
from .registry import build_algorithm
from .telemetry import Telemetry

if TYPE_CHECKING:
    from .cache import ResultCache

__all__ = ["Engine", "JobTimeout", "execute_job", "retry_seed"]

_MASK64 = (1 << 64) - 1
# Same MMIX LCG constants as the rng seed expansion; splitmix-style mixing.
_LCG_MULT = 6364136223846793005
_LCG_INC = 1442695040888963407
_GOLDEN = 0x9E3779B97F4A7C15


class JobTimeout(Exception):
    """Raised inside a worker when a job attempt exceeds its deadline."""


def retry_seed(seed: int, attempt: int) -> int:
    """Deterministic fresh seed for retry ``attempt`` (1-based) of ``seed``."""
    mixed = (seed ^ (attempt * _GOLDEN)) & _MASK64
    return (mixed * _LCG_MULT + _LCG_INC) & _MASK64


class _deadline:
    """Context manager raising :class:`JobTimeout` after ``seconds``.

    Uses ``SIGALRM``, which interrupts pure-Python compute between
    bytecodes.  Silently inert when unsupported (no SIGALRM, or not on
    the main thread) — jobs then run without a deadline rather than
    failing outright.
    """

    def __init__(self, seconds: float | None) -> None:
        self.seconds = seconds
        self.armed = False
        self.previous = None

    def __enter__(self) -> "_deadline":
        if (
            self.seconds
            and self.seconds > 0
            and hasattr(signal, "SIGALRM")
            and threading.current_thread() is threading.main_thread()
        ):
            def _expire(signum, frame):
                raise JobTimeout(f"exceeded {self.seconds}s deadline")

            self.previous = signal.signal(signal.SIGALRM, _expire)
            signal.setitimer(signal.ITIMER_REAL, self.seconds)
            self.armed = True
        return self

    def __exit__(self, *exc_info) -> bool:
        if self.armed:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, self.previous)
        return False


def _extract_counters(result: Any, nested: bool = True) -> dict[str, Any]:
    """Pull algorithm-specific progress counters off a result object.

    Covers the KL/FM pass protocol (``passes``, ``pass_gains`` — the cut
    trajectory, ``swaps``/``moves``), the SA move accounting
    (``temperatures``, ``moves_attempted``, ``moves_accepted``), and one
    level of compaction nesting (``coarse_``/``final_`` prefixes).
    """
    counters: dict[str, Any] = {}
    for name in (
        "initial_cut",
        "passes",
        "swaps",
        "moves",
        "temperatures",
        "moves_attempted",
        "moves_accepted",
        "projected_cut",
    ):
        value = getattr(result, name, None)
        if isinstance(value, int):
            counters[name] = value
    gains = getattr(result, "pass_gains", None)
    if isinstance(gains, list):
        counters["pass_gains"] = list(gains)
    if nested:
        for prefix in ("coarse", "final"):
            inner = getattr(result, f"{prefix}_result", None)
            if inner is not None:
                for k, v in _extract_counters(inner, nested=False).items():
                    counters[f"{prefix}_{k}"] = v
    return counters


def _extract_side0(result: Any) -> tuple[str, ...]:
    bisection = getattr(result, "bisection", None)
    side = getattr(bisection, "side", None)
    if side is None:
        return ()
    return tuple(sorted(vertex_token(v) for v in side(0)))


def execute_job(job: Job, graph: Any) -> JobResult:
    """Run one job to completion (attempts + retries) in this process."""
    spec = job.spec()
    try:
        algorithm = build_algorithm(spec) if spec is not None else job.algorithm
    except Exception as exc:  # unknown name / bad params: fail, don't crash
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
            error=f"{type(exc).__name__}: {exc}",
            tags=job.tags,
        )
    retries = job.retries or 0
    seeds: list[int] = []
    total = 0.0
    error: str | None = None
    for attempt in range(retries + 1):
        seed = job.seed if attempt == 0 else retry_seed(job.seed, attempt)
        seeds.append(seed)
        rng = LaggedFibonacciRandom(seed)
        began = monotonic_time()
        try:
            with _deadline(job.timeout):
                result = algorithm(graph, rng)
        except JobTimeout as exc:
            total += monotonic_time() - began
            error = f"timeout: {exc}"
            continue
        except Exception as exc:  # noqa: BLE001 - robustness boundary by design
            total += monotonic_time() - began
            error = f"{type(exc).__name__}: {exc}"
            continue
        total += monotonic_time() - began
        return JobResult(
            job_id=job.job_id,
            graph_key=job.graph_key,
            algorithm=job.algorithm_name(),
            seed=job.seed,
            status="ok",
            cut=result.cut,
            side0=_extract_side0(result),
            seconds=total,
            attempts=attempt + 1,
            seeds_tried=tuple(seeds),
            counters=_extract_counters(result),
            tags=job.tags,
        )
    return JobResult(
        job_id=job.job_id,
        graph_key=job.graph_key,
        algorithm=job.algorithm_name(),
        seed=job.seed,
        status="failed",
        cut=None,
        side0=(),
        seconds=total,
        attempts=len(seeds),
        seeds_tried=tuple(seeds),
        error=error,
        tags=job.tags,
    )


def _pool_start_method() -> str:
    """The multiprocessing start method the worker pool should use.

    ``REPRO_START_METHOD`` overrides (must name an available method);
    otherwise prefer ``fork`` (no pickling of the graph table) and fall
    back to the platform default — *explicitly*, rather than handing
    ``get_context`` a ``None`` and hoping, so spawn-only platforms get
    the same seed derivation and telemetry as fork ones.
    """
    import multiprocessing

    methods = multiprocessing.get_all_start_methods()
    override = os.environ.get("REPRO_START_METHOD", "").strip()
    if override:
        if override not in methods:
            raise ValueError(
                f"REPRO_START_METHOD={override!r} is not available here "
                f"(choices: {', '.join(methods)})"
            )
        return override
    return "fork" if "fork" in methods else multiprocessing.get_start_method()


class Engine:
    """Runs batches of jobs with caching, telemetry, and a worker pool.

    ``jobs`` is the worker-process count (1 = in-process serial).
    ``cache`` may be ``None`` (disabled), a :class:`ResultCache`, or a
    directory path.  ``timeout``/``retries`` are batch-wide defaults for
    jobs that leave theirs unset.
    """

    def __init__(
        self,
        jobs: int = 1,
        cache: ResultCache | str | None = None,
        telemetry: Telemetry | None = None,
        timeout: float | None = None,
        retries: int = 0,
    ) -> None:
        if jobs < 1:
            raise ValueError("jobs must be at least 1")
        if retries < 0:
            raise ValueError("retries must be at least 0")
        self.jobs = jobs
        if cache is not None:
            from .cache import ResultCache

            if not isinstance(cache, ResultCache):
                cache = ResultCache(cache)
        self.cache = cache
        self.telemetry = telemetry if telemetry is not None else Telemetry()
        self.timeout = timeout
        self.retries = retries

    # -- public API ---------------------------------------------------------------

    def run(self, jobs: Sequence[Job], graphs: Mapping[str, Any]) -> list[JobResult]:
        """Execute ``jobs`` and return their results in submission order."""
        jobs = [self._normalize(job, index) for index, job in enumerate(jobs)]
        for job in jobs:
            if job.graph_key not in graphs:
                raise KeyError(f"job {job.job_id!r} references unknown graph "
                               f"{job.graph_key!r}")
        self.telemetry.emit("batch_start", jobs=len(jobs), workers=self.jobs)
        began = monotonic_time()

        results: list[JobResult | None] = [None] * len(jobs)
        with span("engine.batch", jobs=len(jobs), workers=self.jobs):
            pending: list[tuple[int, Job, str | None]] = []
            fingerprints: dict[str, str | None] = {}
            for index, job in enumerate(jobs):
                key = self._cache_key(job, graphs, fingerprints)
                if key is not None:
                    payload = self.cache.get(key)
                    if payload is not None:
                        results[index] = self._from_payload(job, payload)
                        self.telemetry.emit("cache_hit", job.job_id, key=key)
                        counter("engine_cache_hits_total").inc()
                        continue
                    counter("engine_cache_misses_total").inc()
                pending.append((index, job, key))

            if pending:
                self._run_pending(pending, jobs, graphs, results)

        wall = monotonic_time() - began
        for index, job in enumerate(jobs):
            result = results[index]
            self.telemetry.emit(
                "job_finish",
                job.job_id,
                status=result.status,
                cut=result.cut,
                seconds=round(result.seconds, 6),
                attempts=result.attempts,
                from_cache=result.from_cache,
                algorithm=result.algorithm,
                error=result.error,
            )
        self.telemetry.emit(
            "batch_finish",
            jobs=len(jobs),
            wall_seconds=round(wall, 6),
        )
        if obs_enabled():
            counter("engine_jobs_total").inc(len(jobs))
            fresh = [r for r in results if r is not None and not r.from_cache]
            counter("engine_jobs_failed_total").inc(
                sum(1 for r in fresh if not r.ok)
            )
            counter("engine_job_retries_total").inc(
                sum(max(0, r.attempts - 1) for r in fresh)
            )
            if fresh and wall > 0:
                busy = sum(r.seconds for r in fresh)
                gauge("engine_pool_utilization").set(
                    min(1.0, busy / (wall * self.jobs))
                )
        return results  # type: ignore[return-value]

    # -- internals ----------------------------------------------------------------

    def _normalize(self, job: Job, index: int) -> Job:
        changes: dict[str, Any] = {}
        if not job.job_id:
            changes["job_id"] = f"job{index}"
        if job.timeout is None and self.timeout is not None:
            changes["timeout"] = self.timeout
        if job.retries is None:
            changes["retries"] = self.retries
        elif job.retries < 0:
            raise ValueError(f"job {job.job_id or index!r}: retries must be at least 0")
        return replace(job, **changes) if changes else job

    def _cache_key(
        self,
        job: Job,
        graphs: Mapping[str, Any],
        fingerprints: dict[str, str | None],
    ) -> str | None:
        """The job's cache key, or ``None`` when it cannot be cached."""
        spec = job.spec()
        if self.cache is None or spec is None:
            return None
        if job.graph_key not in fingerprints:
            try:
                fingerprints[job.graph_key] = graph_fingerprint(graphs[job.graph_key])
            except (AttributeError, TypeError):
                # Not a Graph (e.g. a hypergraph netlist): run uncached.
                fingerprints[job.graph_key] = None
                self.telemetry.emit("uncacheable_graph", job.job_id,
                                    graph_key=job.graph_key)
        fingerprint = fingerprints[job.graph_key]
        if fingerprint is None:
            return None
        from .cache import cache_key

        return cache_key(fingerprint, spec, job.seed)

    def _from_payload(self, job: Job, payload: Mapping[str, Any]) -> JobResult:
        return JobResult(
            job_id=job.job_id,
            graph_key=job.graph_key,
            algorithm=job.algorithm_name(),
            seed=job.seed,
            status=payload.get("status", "ok"),
            cut=payload.get("cut"),
            side0=tuple(payload.get("side0", ())),
            seconds=payload.get("seconds", 0.0),
            attempts=payload.get("attempts", 1),
            from_cache=True,
            counters=dict(payload.get("counters", {})),
            tags=job.tags,
        )

    @staticmethod
    def _to_payload(result: JobResult) -> dict[str, Any]:
        return {
            "status": result.status,
            "cut": result.cut,
            "side0": list(result.side0),
            "seconds": result.seconds,
            "attempts": result.attempts,
            "counters": dict(result.counters),
        }

    def _store(self, key: str | None, result: JobResult) -> None:
        if key is None or not result.ok:
            return
        try:
            self.cache.put(key, self._to_payload(result))
        except OSError as exc:
            # A full disk or a read-only cache directory costs the cache
            # entry, never the computed result.
            self.telemetry.emit(
                "cache_store_failed",
                result.job_id,
                key=key,
                error=f"{type(exc).__name__}: {exc}",
            )
            counter("engine_cache_store_failures_total").inc()
            return
        self.telemetry.emit("cache_store", result.job_id, key=key)
        counter("engine_cache_stores_total").inc()

    def _run_pending(
        self,
        pending: list[tuple[int, Job, str | None]],
        jobs: Sequence[Job],
        graphs: Mapping[str, Any],
        results: list[JobResult | None],
    ) -> None:
        parallel = self.jobs > 1 and len(pending) > 1
        if parallel and any(job.spec() is None for _, job, _ in pending):
            self.telemetry.emit(
                "serial_fallback", reason="in-process callable algorithm"
            )
            counter("engine_serial_fallbacks_total").inc()
            parallel = False
        if parallel:
            from .parallel import run_parallel

            pending = run_parallel(self, pending, graphs, results)
        for index, job, key in pending:
            self.telemetry.emit("job_queued", job.job_id, mode="serial")
            self.telemetry.emit("job_start", job.job_id)
            result = execute_job(job, graphs[job.graph_key])
            results[index] = result
            self._store(key, result)
