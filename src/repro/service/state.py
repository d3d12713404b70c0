"""Shared service state: tenants, graph store, and the job table.

:class:`ServiceState` is everything behind the HTTP handlers — it owns a
:class:`~repro.engine.handles.JobRunner` (the shared worker pool), an
in-memory content-addressed graph store, the per-tenant job table, and
quota accounting.  The HTTP layer (:mod:`repro.service.server`) is a thin
JSON shim over this class, which keeps the logic unit-testable without a
socket.

**Tenancy.**  Every request resolves to a :class:`Tenant` via its API key
(``X-API-Key`` header).  A server started without a key table runs in
*open mode*: every request maps to one ``public`` tenant with the default
quotas.  Quotas bound in-flight jobs (queued + running) and stored
graphs; submissions beyond the limit are rejected with
:class:`QuotaError` (HTTP 429), unknown keys with :class:`AuthError`
(HTTP 401).  Fairness across tenants is delegated to the runner's
round-robin lanes — one lane per tenant.

**Graphs.**  Uploaded or generated graphs are stored in memory keyed by
their canonical fingerprint (:func:`~repro.graphs.graph.graph_fingerprint`),
so re-uploading the same graph is idempotent and job submissions can
reference graphs by content address.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any

from ..engine.cache import ResultCache
from ..engine.handles import JobHandle, JobRunner
from ..engine.job import AlgorithmSpec, Job
from ..engine.registry import algorithm_info, algorithm_names, build_algorithm
from ..graphs.graph import Graph, graph_fingerprint
from ..graphs.io import graph_from_string
from ..obs import counter
from ..obs.clock import wall_time
from ..rng import LaggedFibonacciRandom, derive_seed

__all__ = [
    "AuthError",
    "NotFoundError",
    "QuotaError",
    "ServiceError",
    "ServiceState",
    "Tenant",
    "ValidationError",
    "graph_from_generator_spec",
]

#: Hard ceiling on jobs a single submission may expand to (starts/seeds).
MAX_JOBS_PER_SUBMIT = 1024


class ServiceError(Exception):
    """Base class: carries the HTTP status the server should answer with."""

    http_status = 500


class ValidationError(ServiceError):
    """Malformed request payload (HTTP 400)."""

    http_status = 400


class AuthError(ServiceError):
    """Missing or unknown API key (HTTP 401)."""

    http_status = 401


class NotFoundError(ServiceError):
    """Unknown graph / job / result address (HTTP 404)."""

    http_status = 404


class QuotaError(ServiceError):
    """Tenant exceeded a quota (HTTP 429)."""

    http_status = 429


@dataclass
class Tenant:
    """One API-key principal: name, quotas, usage counters."""

    name: str
    api_key: str = ""
    max_inflight: int = 64
    max_graphs: int = 32
    jobs_submitted: int = 0
    graphs: set = field(default_factory=set)

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "max_inflight": self.max_inflight,
            "max_graphs": self.max_graphs,
            "jobs_submitted": self.jobs_submitted,
            "graphs": len(self.graphs),
        }


_GENERATOR_DEFAULTS = {
    "gbreg": {"vertices": 100, "width": 4, "degree": 3, "seed": 0},
    "g2set": {"vertices": 100, "p": 0.03, "width": 4, "seed": 0},
    "gnp": {"vertices": 100, "p": 0.05, "seed": 0},
    "ladder": {"vertices": 100},
    "grid": {"vertices": 100},
    "btree": {"vertices": 63},
}


def graph_from_generator_spec(model: str, params: dict[str, Any]) -> Graph:
    """Build a graph from a generator spec (the ``POST /v1/graphs`` body).

    Mirrors ``repro-bisect generate``: same models, same parameter names,
    same defaults — so a spec submitted over HTTP reproduces the CLI graph
    bit for bit.
    """
    if model not in _GENERATOR_DEFAULTS:
        raise ValidationError(
            f"unknown generator {model!r} (known: {', '.join(sorted(_GENERATOR_DEFAULTS))})"
        )
    merged = {**_GENERATOR_DEFAULTS[model], **(params or {})}
    unknown = set(merged) - set(_GENERATOR_DEFAULTS[model])
    if unknown:
        raise ValidationError(
            f"unknown {model} parameter(s): {', '.join(sorted(unknown))}"
        )
    try:
        if model == "gbreg":
            from ..graphs.generators import gbreg

            return gbreg(
                int(merged["vertices"]), int(merged["width"]),
                int(merged["degree"]), int(merged["seed"]),
            ).graph
        if model == "g2set":
            from ..graphs.generators import g2set

            p = float(merged["p"])
            return g2set(
                int(merged["vertices"]), p, p, int(merged["width"]),
                int(merged["seed"]),
            ).graph
        if model == "gnp":
            from ..graphs.generators import gnp

            return gnp(int(merged["vertices"]), float(merged["p"]), int(merged["seed"]))
        if model == "ladder":
            from ..graphs.generators import ladder_graph

            return ladder_graph(int(merged["vertices"]) // 2)
        if model == "grid":
            from ..graphs.generators import grid_graph

            side = int(round(int(merged["vertices"]) ** 0.5))
            return grid_graph(side, side)
        from ..graphs.generators import binary_tree

        return binary_tree(int(merged["vertices"]))
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"bad {model} parameters: {exc}") from exc


def _graph_record(graph: Graph, graph_id: str, source: str) -> dict[str, Any]:
    return {
        "id": graph_id,
        "source": source,
        "vertices": graph.num_vertices,
        "edges": graph.num_edges,
        "total_edge_weight": graph.total_edge_weight,
        "average_degree": round(graph.average_degree(), 3),
        "created_at": round(wall_time(), 6),
    }


class ServiceState:
    """The service's world: graphs, jobs, tenants, and the shared runner."""

    def __init__(
        self,
        runner: JobRunner,
        api_keys: dict[str, dict[str, Any]] | None = None,
        default_max_inflight: int = 64,
        default_max_graphs: int = 32,
        default_timeout: float | None = None,
        default_retries: int = 0,
    ) -> None:
        self.runner = runner
        self.started_at = wall_time()
        self.default_timeout = default_timeout
        self.default_retries = default_retries
        self._lock = threading.Lock()
        self._graphs: dict[str, Graph] = {}
        self._graph_meta: dict[str, dict[str, Any]] = {}
        self._jobs: dict[str, dict[str, Any]] = {}
        self._job_counter = 0
        self.open_mode = not api_keys
        self._tenants: dict[str, Tenant] = {}
        if api_keys:
            for key, spec in api_keys.items():
                self._tenants[key] = Tenant(
                    name=str(spec.get("name", key)),
                    api_key=key,
                    max_inflight=int(spec.get("max_inflight", default_max_inflight)),
                    max_graphs=int(spec.get("max_graphs", default_max_graphs)),
                )
        else:
            self._tenants[""] = Tenant(
                name="public",
                max_inflight=default_max_inflight,
                max_graphs=default_max_graphs,
            )

    # -- tenants ------------------------------------------------------------------

    def resolve_tenant(self, api_key: str | None) -> Tenant:
        """The tenant for ``api_key``; raises :class:`AuthError` when unknown."""
        if self.open_mode:
            return self._tenants[""]
        tenant = self._tenants.get(api_key or "")
        if tenant is None:
            raise AuthError("missing or unknown API key (send X-API-Key)")
        return tenant

    def tenants(self) -> list[dict[str, Any]]:
        with self._lock:
            return [t.to_dict() for t in self._tenants.values()]

    # -- graphs -------------------------------------------------------------------

    def create_graph(self, tenant: Tenant, payload: dict[str, Any]) -> dict[str, Any]:
        """Store a graph from an upload or generator spec; returns its record.

        Content-addressed: re-adding an existing graph returns the
        existing record (and does not count against the tenant's graph
        quota twice).
        """
        if not isinstance(payload, dict):
            raise ValidationError("request body must be a JSON object")
        if "edges" in payload:
            try:
                graph = graph_from_string(str(payload["edges"]), "edges")
            except (ValueError, KeyError) as exc:
                raise ValidationError(f"bad edge-list data: {exc}") from exc
            source = "upload"
        elif "generator" in payload:
            graph = graph_from_generator_spec(
                str(payload["generator"]), payload.get("params") or {}
            )
            source = f"generator:{payload['generator']}"
        else:
            raise ValidationError(
                "graph payload needs 'edges' (edge-list text) or "
                "'generator' (+ 'params')"
            )
        if graph.num_vertices == 0:
            raise ValidationError("graph has no vertices")
        graph_id = graph_fingerprint(graph)
        with self._lock:
            if graph_id not in self._graphs:
                if len(tenant.graphs) >= tenant.max_graphs:
                    raise QuotaError(
                        f"tenant {tenant.name!r} is at its graph quota "
                        f"({tenant.max_graphs})"
                    )
                self._graphs[graph_id] = graph
                self._graph_meta[graph_id] = _graph_record(graph, graph_id, source)
                counter("service_graphs_total").inc()
            tenant.graphs.add(graph_id)
            record = dict(self._graph_meta[graph_id])
        self.runner.telemetry.emit(
            "graph_stored", graph_id=graph_id, tenant=tenant.name, source=source,
            vertices=record["vertices"], edges=record["edges"],
        )
        return record

    def get_graph(self, graph_id: str) -> Graph:
        with self._lock:
            graph = self._graphs.get(graph_id)
        if graph is None:
            raise NotFoundError(f"unknown graph {graph_id!r}")
        return graph

    def graph_record(self, graph_id: str) -> dict[str, Any]:
        with self._lock:
            record = self._graph_meta.get(graph_id)
        if record is None:
            raise NotFoundError(f"unknown graph {graph_id!r}")
        return dict(record)

    def list_graphs(self, tenant: Tenant) -> list[dict[str, Any]]:
        with self._lock:
            visible = tenant.graphs if not self.open_mode else set(self._graph_meta)
            return [dict(self._graph_meta[g]) for g in sorted(visible)
                    if g in self._graph_meta]

    # -- jobs ---------------------------------------------------------------------

    def submit_jobs(self, tenant: Tenant, payload: dict[str, Any]) -> list[dict[str, Any]]:
        """Expand one submission into engine jobs; returns their records.

        A submission names a stored graph, an algorithm, optional params,
        and either ``seed`` (+ optional ``starts``, seeds derived exactly
        like the bench best-of-R protocol) or an explicit ``seeds`` list.
        """
        if not isinstance(payload, dict):
            raise ValidationError("request body must be a JSON object")
        graph_id = payload.get("graph")
        if not graph_id:
            raise ValidationError("submission needs a 'graph' id")
        graph = self.get_graph(str(graph_id))
        algorithm = str(payload.get("algorithm", ""))
        if not algorithm:
            raise ValidationError("submission needs an 'algorithm' name")
        try:
            info = algorithm_info(algorithm)
        except KeyError:
            raise ValidationError(
                f"unknown algorithm {algorithm!r} "
                f"(registered: {', '.join(algorithm_names())})"
            ) from None
        if info.domain != "graph":
            raise ValidationError(
                f"algorithm {algorithm!r} partitions {info.domain}s, not graphs"
            )
        if not info.supports(graph):
            raise ValidationError(
                f"algorithm {algorithm!r} requires max degree "
                f"{info.max_degree}; graph exceeds it"
            )
        params = payload.get("params") or {}
        if not isinstance(params, dict):
            raise ValidationError("'params' must be an object")
        try:
            spec = AlgorithmSpec.make(algorithm, **params)
            build_algorithm(spec)  # reject unknown params at submit, not in a worker
        except TypeError as exc:
            raise ValidationError(f"bad params for {algorithm!r}: {exc}") from exc
        seeds = self._expand_seeds(payload)
        timeout = payload.get("timeout", self.default_timeout)
        retries = payload.get("retries", self.default_retries)
        if retries is not None:
            try:
                retries = int(retries)
                if retries < 0:
                    raise ValueError(retries)
            except (TypeError, ValueError):
                raise ValidationError("'retries' must be an integer >= 0") from None
        with self._lock:
            inflight = sum(
                1 for record in self._jobs.values()
                if record["tenant"] == tenant.name
                and not record["handle"].done
            )
            if inflight + len(seeds) > tenant.max_inflight:
                raise QuotaError(
                    f"tenant {tenant.name!r} would have {inflight + len(seeds)} "
                    f"jobs in flight (quota: {tenant.max_inflight})"
                )
            job_ids = []
            for _ in seeds:
                self._job_counter += 1
                job_ids.append(f"j{self._job_counter:06d}")
            tenant.jobs_submitted += len(seeds)
        records = []
        for job_id, seed in zip(job_ids, seeds):
            job = Job(
                graph_key=str(graph_id),
                algorithm=spec,
                seed=int(seed),
                job_id=job_id,
                timeout=timeout,
                retries=retries,
                tags=(("tenant", tenant.name),),
            )
            handle = self.runner.submit(job, graph, lane=tenant.name)
            record = {
                "id": job_id,
                "tenant": tenant.name,
                "graph": str(graph_id),
                "algorithm": spec.describe(),
                "seed": int(seed),
                "handle": handle,
            }
            with self._lock:
                self._jobs[job_id] = record
            counter("service_jobs_submitted_total").inc()
            records.append(self.job_status(tenant, job_id))
        return records

    @staticmethod
    def _expand_seeds(payload: dict[str, Any]) -> list[int]:
        if "seeds" in payload:
            seeds = payload["seeds"]
            if not isinstance(seeds, list) or not seeds:
                raise ValidationError("'seeds' must be a non-empty list of integers")
            try:
                seeds = [int(s) for s in seeds]
            except (TypeError, ValueError):
                raise ValidationError("'seeds' must be a non-empty list of integers") from None
        else:
            try:
                seed = int(payload.get("seed", 0))
                starts = int(payload.get("starts", 1))
            except (TypeError, ValueError):
                raise ValidationError("'seed' and 'starts' must be integers") from None
            if starts < 1:
                raise ValidationError("'starts' must be at least 1")
            if starts == 1:
                seeds = [seed]
            else:
                # Best-of-R: derive start seeds exactly like the bench.
                master = LaggedFibonacciRandom(seed)
                seeds = [derive_seed(master, index) for index in range(starts)]
        if len(seeds) > MAX_JOBS_PER_SUBMIT:
            raise ValidationError(
                f"submission expands to {len(seeds)} jobs "
                f"(limit: {MAX_JOBS_PER_SUBMIT})"
            )
        return seeds

    def _record_for(self, tenant: Tenant, job_id: str) -> dict[str, Any]:
        with self._lock:
            record = self._jobs.get(job_id)
        if record is None or (not self.open_mode and record["tenant"] != tenant.name):
            raise NotFoundError(f"unknown job {job_id!r}")
        return record

    def job_status(self, tenant: Tenant, job_id: str) -> dict[str, Any]:
        """The poll view of one job: state, timings, result when done."""
        record = self._record_for(tenant, job_id)
        handle: JobHandle = record["handle"]
        status: dict[str, Any] = {
            "id": record["id"],
            "graph": record["graph"],
            "algorithm": record["algorithm"],
            "seed": record["seed"],
            "state": handle.state,
            "cache_key": handle.cache_key,
            "submitted_at": round(handle.submitted_at, 6),
        }
        if handle.started_at is not None:
            status["queue_seconds"] = round(handle.queue_seconds, 6)
        if handle.finished_at is not None:
            status["finished_at"] = round(handle.finished_at, 6)
        result = handle.result
        if result is not None:
            status["result"] = {
                "status": result.status,
                "cut": result.cut,
                "seconds": round(result.seconds, 6),
                "attempts": result.attempts,
                "from_cache": result.from_cache,
                "error": result.error,
                "counters": dict(result.counters),
            }
        return status

    def list_jobs(self, tenant: Tenant, state: str | None = None) -> list[dict[str, Any]]:
        with self._lock:
            ids = [
                job_id
                for job_id, record in self._jobs.items()
                if self.open_mode or record["tenant"] == tenant.name
            ]
        statuses = [self.job_status(tenant, job_id) for job_id in sorted(ids)]
        if state is not None:
            statuses = [s for s in statuses if s["state"] == state]
        return statuses

    def cancel_job(self, tenant: Tenant, job_id: str) -> dict[str, Any]:
        record = self._record_for(tenant, job_id)
        handle: JobHandle = record["handle"]
        cancelled = handle.cancel()
        if cancelled:
            counter("service_jobs_cancelled_total").inc()
            self.runner.telemetry.emit(
                "job_cancelled", job_id, tenant=record["tenant"]
            )
        return {"id": job_id, "cancelled": cancelled, "state": handle.state}

    # -- results ------------------------------------------------------------------

    def result_by_key(self, key: str) -> dict[str, Any]:
        """Fetch a stored result payload by content address (cache key)."""
        cache: ResultCache | None = self.runner.cache
        if cache is None:
            raise NotFoundError("this server runs without a result cache")
        payload = cache.get(key)
        if payload is None:
            raise NotFoundError(f"no result stored under {key!r}")
        return payload

    # -- misc ---------------------------------------------------------------------

    def health(self) -> dict[str, Any]:
        return {
            "status": "ok",
            "uptime_seconds": round(wall_time() - self.started_at, 3),
            "graphs": len(self._graphs),
            "jobs": len(self._jobs),
            "pending": self.runner.pending(),
            "workers": self.runner.workers,
            "open_mode": self.open_mode,
            "algorithms": algorithm_names("graph"),
        }
