"""The benchmark's calls into each layer of the program, one function per call site.

Every call is wrapped in a span named after the layer it enters, so the
traced run can attribute time to ``cli``, ``graphs``, ``core``,
``partition``, ``kernels``, ``engine`` and ``service``.  The direct
(in-process, serial) runs compose CKL and CSA from the ``core`` steps in
the order :func:`repro.core.pipeline.compacted_bisection` uses, so the
``core`` stages get their own spans; the references then prove the
composition gives the same cuts as the registry's ``ckl``/``csa``.
"""

from __future__ import annotations

import ast
import hashlib
import shutil
import subprocess
import threading
import time
from pathlib import Path

from env import Server, python_cmd
from inputs import SA_SIZE_FACTOR, JobSpec, check_outcome, label_of

#: Pause between two polls of a job that is not done yet.
POLL_INTERVAL_S = 0.005
CLI_TIMEOUT_S = 120.0
PROBE_REPEATS = 5


def _bisector(name: str):
    from repro.partition.annealing import AnnealingSchedule, simulated_annealing
    from repro.partition.fm import fiduccia_mattheyses
    from repro.partition.kl import kernighan_lin

    if name == "kl":
        return kernighan_lin, {}
    if name == "fm":
        return fiduccia_mattheyses, {}
    return simulated_annealing, {"schedule": AnnealingSchedule(size_factor=SA_SIZE_FACTOR)}


def _counts(result) -> dict:
    names = ("swaps", "moves", "moves_attempted", "moves_accepted")
    return {n: getattr(result, n) for n in names if isinstance(getattr(result, n, None), int)}


def _compacted(tracer, graph, inner: str, rng):
    """CKL (``inner="kl"``) or CSA (``inner="sa"``) from the ``core`` steps."""
    from repro.core.compaction import compact
    from repro.core.matching import random_maximal_matching
    from repro.core.pipeline import CompactedResult
    from repro.partition.bisection import Bisection, default_tolerance, rebalance

    bisector, kwargs = _bisector(inner)
    with tracer.span("core.match"):
        matching = random_maximal_matching(graph, rng)
    with tracer.span("core.compact") as span:
        compaction = compact(graph, matching)
        if span is not None:
            span.attrs["ratio"] = compaction.compaction_ratio
    with tracer.span(f"partition.{inner}", stage="coarse"):
        coarse = bisector(compaction.coarse, rng=rng, **kwargs)
    with tracer.span("core.project"):
        projected = compaction.project(coarse.bisection)
        projected_cut = projected.cut
        tolerance = default_tolerance(graph)
        if projected.imbalance > tolerance:
            projected = Bisection(
                graph, rebalance(graph, projected.assignment(), tolerance, rng))
    with tracer.span(f"partition.{inner}", stage="final"):
        final = bisector(graph, init=projected, rng=rng, **kwargs)
    return CompactedResult(bisection=final.bisection, compaction=compaction,
                           coarse_result=coarse, final_result=final,
                           projected_cut=projected_cut)


def run_direct(tracer, graph, job: JobSpec):
    """Run ``job`` serially in this process; returns ``(result, seconds)``."""
    from repro.rng import LaggedFibonacciRandom

    rng = LaggedFibonacciRandom(job.seed)  # what the engine's workers build
    began = time.perf_counter()
    if job.algorithm in ("ckl", "csa"):
        with tracer.span(f"core.{job.algorithm}", job=job.ident):
            result = _compacted(tracer, graph, job.algorithm[1:], rng)
    else:
        bisector, kwargs = _bisector(job.algorithm)
        with tracer.span(f"partition.{job.algorithm}", stage="standalone") as span:
            result = bisector(graph, rng=rng, **kwargs)
            if span is not None:
                span.attrs.update(_counts(result))
    return result, time.perf_counter() - began


def verify(references, graph, job: JobSpec, cut, labels, result) -> str | None:
    """Why the outcome of ``job`` is wrong, or ``None``.

    ``cut`` is the cut the program reported and ``labels`` the side-0 vertex
    labels; ``result`` is what :func:`repro.verify.invariants.check_result`
    checks (an algorithm result or a rebuilt bisection).
    """
    from repro.verify.invariants import check_result

    problem = check_outcome(references, job, cut, labels)
    if problem:
        return problem
    violations = check_result(graph, result)
    if violations:
        return f"{job.ident}: " + "; ".join(f"{v.invariant}: {v.message}"
                                            for v in violations)
    return None


def verify_engine(references, graphs, jobs, results) -> list[str]:
    """One problem per engine result that failed or is wrong."""
    problems = []
    for job, result in zip(jobs, results):
        if not result.ok:
            problems.append(f"{job.ident}: {result.error}")
            continue
        graph = graphs[job.graph_key]
        problem = verify(references, graph, job, result.cut,
                         [label_of(t) for t in result.side0], result.bisection(graph))
        if problem:
            problems.append(problem)
    return problems


def engine_jobs(jobs):
    from repro.engine import AlgorithmSpec, Job

    return [Job(j.graph_key, AlgorithmSpec.make(j.algorithm, **j.params), j.seed,
                job_id=f"j{i}") for i, j in enumerate(jobs)]


# -- graphs -----------------------------------------------------------------------


def load_graph(tracer, spec, seed: int, path: Path):
    """Generate, save and parse one input graph; returns the parsed graph.

    The program only ever sees the parsed copy, as a user passing the file
    would; the CSR view is compiled here so no timed operation pays for it.
    """
    from inputs import build_graph
    from repro.graphs.csr import csr_view
    from repro.graphs.io import read_edge_list, write_edge_list

    with tracer.span("graphs.generate", graph=spec.key):
        generated = build_graph(spec, seed)
    with tracer.span("graphs.write", graph=spec.key):
        write_edge_list(generated, path)
    with tracer.span("graphs.parse", graph=spec.key):
        graph = read_edge_list(path)
    with tracer.span("graphs.csr_compile", graph=spec.key):
        csr_view(graph)
    return graph


def shm_probe(tracer, graph) -> list[str]:
    """Export the graph to shared memory and attach it back, as engine workers do."""
    from repro.graphs.shm import SharedGraphSegment

    problems = []
    for _ in range(PROBE_REPEATS):
        with tracer.span("graphs.shm_export"):
            segment = SharedGraphSegment.create(graph)
        try:
            with tracer.span("graphs.shm_attach"):
                attached = SharedGraphSegment.attach(segment.name)
                rebuilt = attached.graph()
            if rebuilt.num_edges != graph.num_edges:
                problems.append("shm: attached graph differs from the exported one")
            del rebuilt
            attached.close()
        finally:
            segment.close()
            segment.unlink()
    return problems


# -- kernels ----------------------------------------------------------------------


def kernel_probe(tracer, graph, bisection) -> list[str]:
    """Time the batch gain and cut kernels on ``graph`` at ``bisection``."""
    from repro.graphs.csr import csr_view
    from repro.kernels import kernel_backend
    from repro.kernels.gains import cut_weight, move_gains

    csr = csr_view(graph)
    sides = csr.sides_list(bisection.assignment())
    backend = kernel_backend()
    cut = None
    for _ in range(PROBE_REPEATS):
        with tracer.span("kernels.move_gains"):
            move_gains(csr, sides, backend)
        with tracer.span("kernels.cut_weight"):
            cut = cut_weight(csr, sides, backend)
    return [] if cut == bisection.cut else [f"kernels: cut {cut} != {bisection.cut}"]


# -- engine -----------------------------------------------------------------------


def cache_probe(tracer, root: Path, results) -> list[str]:
    """Store and read back each ``(job, result)`` through a fresh ``ResultCache``."""
    from repro.engine import ResultCache

    cache = ResultCache(root)
    problems = []
    try:
        for job, result in results:
            key = hashlib.sha256(job.ident.encode()).hexdigest()
            payload = {"status": "ok", "cut": result.cut, "attempts": 1,
                       "side0": sorted(map(str, result.bisection.side(0))),
                       "seconds": 0.0, "counters": _counts(result)}
            with tracer.span("engine.cache_put"):
                cache.put(key, payload)
            with tracer.span("engine.cache_get"):
                back = cache.get(key)
            if back != payload:
                problems.append(f"{job.ident}: cache returned a different payload")
    finally:
        shutil.rmtree(root, ignore_errors=True)
    return problems


# -- cli --------------------------------------------------------------------------


def _timed_process(tracer, name: str, cwd: Path, *args: str) -> None:
    with tracer.span(name):
        done = subprocess.run(python_cmd(*args), cwd=cwd, capture_output=True,
                              timeout=CLI_TIMEOUT_S)
    if done.returncode != 0:
        raise RuntimeError(f"{args}: exit {done.returncode}: {done.stderr[-500:]!r}")


def cli_probe(tracer, root: Path) -> None:
    """The floor of every CLI run: a bare interpreter, then one importing the CLI."""
    for _ in range(PROBE_REPEATS):
        _timed_process(tracer, "cli.interpreter", root, "-c", "pass")
        _timed_process(tracer, "cli.import", root, "-c", "import repro.cli")


def cli_run(tracer, root: Path, path: Path, job: JobSpec):
    """One ``repro-bisect run``: ``(seconds to the printed cut, cut, side-0 labels)``."""
    command = python_cmd("-m", "repro.cli", "run", str(path), "--algorithm",
                         job.algorithm, "--seed", str(job.seed), "--show-sides")
    with tracer.span("cli.run", job=job.ident):
        began = time.perf_counter()
        proc = subprocess.Popen(command, cwd=root, stdout=subprocess.PIPE,
                                stderr=subprocess.STDOUT)
        watchdog = threading.Timer(CLI_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            cut, seconds, lines = None, None, []
            for raw in proc.stdout:
                line = raw.decode(errors="replace")
                lines.append(line)
                if seconds is None and line.startswith(f"{job.algorithm}: cut="):
                    seconds = time.perf_counter() - began
                    cut = int(line.split("cut=", 1)[1].split()[0])
            code = proc.wait()
        finally:
            watchdog.cancel()
            proc.stdout.close()
    side0 = [ast.literal_eval(line.split(":", 1)[1].strip())
             for line in lines if line.startswith("side 0:")]
    if code != 0 or seconds is None or len(side0) != 1:
        raise RuntimeError(f"{job.ident}: exit {code}: {''.join(lines)[-500:]!r}")
    return seconds, cut, side0[0]


# -- service ----------------------------------------------------------------------


def upload(client, path: Path) -> str:
    return client.upload_graph(path.read_text(encoding="utf-8"))["id"]


def service_request(tracer, client, graph_id: str, job: JobSpec) -> dict:
    """Submit one job, poll it to completion and fetch its stored result."""
    with tracer.span("service.request", job=job.ident) as span:
        began = time.perf_counter()
        with tracer.span("service.submit"):
            record = client.submit(graph_id, job.algorithm, params=job.params or None,
                                   seeds=[job.seed])[0]
        polls = 0
        while record["state"] not in ("done", "cancelled"):
            time.sleep(POLL_INTERVAL_S)
            with tracer.span("service.poll"):
                record = client.job(record["id"])
            polls += 1
        result = record.get("result") or {}
        if result.get("status") != "ok":
            raise RuntimeError(f"{job.ident}: {record['state']}: {result.get('error')}")
        with tracer.span("service.fetch"):
            payload = client.result(record["cache_key"])
        seconds = time.perf_counter() - began
        if span is not None and not result["from_cache"]:
            # The runner's own queue wait for this job, which is what feeds
            # the engine_queue_wait_seconds histogram on /metrics.
            span.attrs["queue_s"] = record["queue_seconds"]
    return {"seconds": seconds, "polls": polls, "from_cache": result["from_cache"],
            "cut": payload["cut"], "labels": [label_of(t) for t in payload["side0"]]}


def service_probe(tracer, root: Path, workers: int, cache: Path, path: Path,
                  jobs, references) -> list[str]:
    """A few sequential requests against a fresh server: fresh computes, then reads."""
    from repro.service.client import ServiceClient

    server = Server(root, workers, cache)
    problems = []
    try:
        client = ServiceClient(server.url)
        graph_id = upload(client, path)
        for job in list(jobs) + list(jobs[:2]):
            out = service_request(tracer, client, graph_id, job)
            problem = check_outcome(references, job, out["cut"], out["labels"])
            if problem:
                problems.append(problem)
    finally:
        server.stop()
        shutil.rmtree(cache, ignore_errors=True)
    return problems
