"""The four workloads, their measured phases, and the metrics they report.

Each workload sets up (generate, save and parse its graphs; start what it
talks to; warm up), then repeats its operation until ``--seconds`` have
passed, checking every output against the references:

``paper-table``  one operation = one sweep of Gbreg(5000,16,3) and
                 Gnp(5000, mean degree 2.5) x {kl, fm, sa, ckl, csa}, one
                 seeded start each, through ``Engine.run`` (nproc workers,
                 no cache).
``small-batch``  one operation = one ``Engine.run`` of 160 short KL/FM jobs on
                 Gbreg(500)/Gnp(500) into a fresh, empty result cache.
``service-mix``  one operation = one request (submit, poll, fetch) from a
                 closed-loop client thread to a ``serve --workers nproc``
                 subprocess.
``cli-cold``     one operation = one ``repro-bisect run`` subprocess, timed
                 from spawn to the printed cut.
"""

from __future__ import annotations

import resource
import shutil
import statistics
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import layers
from inputs import GRAPHS, WorkloadJobs, check_outcome, graph_seed, rng_for
from stats import median, tail
from tracing import Tracer, self_times

SETUPS = 5
#: Closed-loop clients of service-mix.  The server computes under one
#: interpreter lock, so nproc clients only queue behind each other there:
#: on two cores they doubled the request latency without raising
#: throughput, and spread jobs_per_s by about 20% between runs.
SERVICE_CLIENTS = 1
LAYERS = ("cli", "graphs", "core", "partition", "kernels", "engine", "service")


@dataclass
class Phase:
    """What one measured phase saw."""

    latencies: list[float] = field(default_factory=list)  # seconds per operation
    busy: float = 0.0  # seconds spent inside operations
    jobs: int = 0  # jobs completed and verified
    cache_hits: int = 0
    cache_lookups: int = 0
    lock: threading.Lock = field(default_factory=threading.Lock, repr=False)


@dataclass
class Context:
    root: Path
    work: Path
    workload: str
    instance: int
    seconds: float
    workers: int
    tracer: Tracer
    jobs: WorkloadJobs
    references: dict
    attempted: int = 0
    problems: list = field(default_factory=list)
    _lock: threading.Lock = field(default_factory=threading.Lock)

    def account(self, attempted: int, problems) -> int:
        """Count ``attempted`` operations, of which ``problems`` failed; returns the good ones."""
        problems = list(problems)
        with self._lock:
            self.attempted += attempted
            self.problems += problems
        return attempted - len(problems)

    @property
    def failed(self) -> int:
        return len(self.problems)


class Workload:
    name = ""
    unit = ""  # what one operation is, for the report
    p50_name = tail_name = ""  # the report's names for the operation latency

    def setup(self, ctx: Context) -> dict:
        graphs = {}
        for spec in GRAPHS[self.name]:
            path = ctx.work / f"{spec.key}.edges"
            graphs[spec.key] = layers.load_graph(
                ctx.tracer, spec, graph_seed(self.name, ctx.instance, spec.key), path)
        return {"graphs": graphs}

    def teardown(self, state: dict) -> None:
        pass

    def measure(self, ctx: Context, state: dict, seconds: float) -> Phase:
        phase = Phase()
        began = time.perf_counter()
        while time.perf_counter() - began < seconds:
            self.operation(ctx, state, phase)
        return phase

    def operation(self, ctx: Context, state: dict, phase: Phase) -> None:
        raise NotImplementedError

    def engine(self, ctx: Context):
        """The engine the census's parallel run uses (as the operation would)."""
        from repro.engine import Engine

        return Engine(jobs=ctx.workers)

    def release(self, engine) -> None:
        """Drop what :meth:`engine` made for one run."""


class EngineWorkload(Workload):
    """An operation is one ``Engine.run`` of the input set's whole job list."""

    def setup(self, ctx: Context) -> dict:
        from repro.engine import build_algorithm

        state = super().setup(ctx)
        state["jobs"] = layers.engine_jobs(ctx.jobs.op)
        # Import every algorithm before the pool forks, then prove the pool
        # works with one short job per graph.
        for job in state["jobs"]:
            build_algorithm(job.algorithm)
        warm = [next(j for j in ctx.jobs.op if j.graph_key == key and j.algorithm == "kl")
                for key in state["graphs"]]
        engine = self.engine(ctx)
        results = engine.run(layers.engine_jobs(warm), state["graphs"])
        self.release(engine)
        ctx.account(len(warm), layers.verify_engine(ctx.references, state["graphs"],
                                                    warm, results))
        return state

    def measure(self, ctx: Context, state: dict, seconds: float) -> Phase:
        # The first operation of a process runs measurably slower than the
        # rest; it is checked but not timed.
        self.operation(ctx, state, Phase())
        return super().measure(ctx, state, seconds)

    def operation(self, ctx: Context, state: dict, phase: Phase) -> None:
        engine = self.engine(ctx)
        with ctx.tracer.span("engine.run"):
            began = time.perf_counter()
            results = engine.run(state["jobs"], state["graphs"])
            elapsed = time.perf_counter() - began
        self.release(engine)
        problems = layers.verify_engine(ctx.references, state["graphs"],
                                        ctx.jobs.op, results)
        phase.jobs += ctx.account(len(results), problems)
        phase.latencies.append(elapsed)
        phase.busy += elapsed
        phase.cache_hits += sum(r.from_cache for r in results)
        phase.cache_lookups += len(results) if engine.cache is not None else 0


class PaperTable(EngineWorkload):
    name = "paper-table"
    unit = "sweep"
    p50_name, tail_name = "sweep_s", "sweep_tail_s"


class SmallBatch(EngineWorkload):
    name = "small-batch"
    unit = "batch"
    p50_name, tail_name = "batch_p50_s", "batch_tail_s"

    def engine(self, ctx: Context):
        from repro.engine import Engine

        return Engine(jobs=ctx.workers, cache=tempfile.mkdtemp(prefix="cache-", dir=ctx.work))

    def release(self, engine) -> None:
        shutil.rmtree(engine.cache.root, ignore_errors=True)


def _clear(directory: Path) -> None:
    for child in directory.iterdir():
        shutil.rmtree(child) if child.is_dir() else child.unlink()


class ServiceMix(Workload):
    name = "service-mix"
    unit = "request"
    p50_name, tail_name = "req_p50_ms", "req_tail_ms"

    def setup(self, ctx: Context) -> dict:
        from repro.service.client import ServiceClient

        state = super().setup(ctx)
        cache = ctx.work / "service-cache"
        cache.mkdir()
        server = layers.Server(ctx.root, ctx.workers, cache)
        state.update(server=server, cache=cache)
        try:
            client = ServiceClient(server.url)
            key = GRAPHS[self.name][0].key
            state["graph_id"] = layers.upload(client, ctx.work / f"{key}.edges")
            self._request(ctx, state, client, ctx.jobs.op[0], Phase())
            _clear(cache)
        except BaseException:
            self.teardown(state)
            raise
        state["round"] = self.round_items(ctx)
        return state

    def teardown(self, state: dict) -> None:
        state["server"].stop()
        shutil.rmtree(state["cache"], ignore_errors=True)

    @staticmethod
    def round_items(ctx: Context) -> list:
        """One round's request sequence: every pool job fresh, ~40% reads mixed in.

        A read repeats a job issued at least four requests earlier, so with
        a few clients it is almost always already stored.  Reads stay under
        half so the median request is a fresh compute, not the boundary
        between the two modes.
        """
        rng = rng_for(ctx.workload, ctx.instance, "reads")
        items = []
        for k, job in enumerate(ctx.jobs.op):
            items.append(job)
            if k >= 4 and k % 3:
                items.append(ctx.jobs.op[rng.randrange(k - 3)])
        return items

    def _request(self, ctx, state, client, job, phase: Phase) -> None:
        try:
            out = layers.service_request(ctx.tracer, client, state["graph_id"], job)
        except Exception as exc:  # a failed request is counted, not fatal
            ctx.account(1, [f"{job.ident}: {type(exc).__name__}: {exc}"])
            return
        problem = check_outcome(ctx.references, job, out["cut"], out["labels"])
        if ctx.account(1, [problem] if problem else []):
            with phase.lock:
                phase.jobs += 1
                phase.latencies.append(out["seconds"])
                phase.cache_hits += out["from_cache"]
                phase.cache_lookups += 1

    def measure(self, ctx: Context, state: dict, seconds: float) -> Phase:
        from repro.service.client import ServiceClient

        phase = Phase()
        began = time.perf_counter()
        while time.perf_counter() - began < seconds:
            items = iter(state["round"])
            take = threading.Lock()

            def client_loop():
                client = ServiceClient(state["server"].url)
                while time.perf_counter() - began < seconds:
                    with take:
                        job = next(items, None)
                    if job is None:
                        return
                    self._request(ctx, state, client, job, phase)

            round_began = time.perf_counter()
            threads = [threading.Thread(target=client_loop) for _ in range(SERVICE_CLIENTS)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            phase.busy += time.perf_counter() - round_began
            _clear(state["cache"])  # the next round computes afresh
        return phase


class CliCold(Workload):
    name = "cli-cold"
    unit = "run"
    p50_name, tail_name = "run_p50_s", "run_tail_s"

    def setup(self, ctx: Context) -> dict:
        state = super().setup(ctx)
        state["path"] = ctx.work / f"{GRAPHS[self.name][0].key}.edges"
        state["next"] = 0
        self.operation(ctx, state, Phase())  # warm the page cache
        return state

    def operation(self, ctx: Context, state: dict, phase: Phase) -> None:
        job = ctx.jobs.op[state["next"] % len(ctx.jobs.op)]
        state["next"] += 1
        try:
            seconds, cut, labels = layers.cli_run(ctx.tracer, ctx.root, state["path"], job)
        except (RuntimeError, OSError) as exc:
            ctx.account(1, [str(exc)])
            return
        problem = check_outcome(ctx.references, job, cut, labels)
        if ctx.account(1, [problem] if problem else []):
            phase.jobs += 1
            phase.latencies.append(seconds)
            phase.busy += seconds


WORKLOADS = {w.name: w for w in (PaperTable(), SmallBatch(), ServiceMix(), CliCold())}


# -- running ----------------------------------------------------------------------


def set_up(ctx: Context, workload: Workload) -> tuple[dict, list[float]]:
    """Set up :data:`SETUPS` times (keeping the last); returns it and the timings."""
    timings, state = [], None
    for _ in range(SETUPS):
        if state is not None:
            workload.teardown(state)
            for stale in ctx.work.glob("*.edges"):
                stale.unlink()
        began = time.perf_counter()
        state = workload.setup(ctx)
        timings.append(time.perf_counter() - began)
    return state, timings


def end_to_end(ctx: Context, workload: Workload) -> tuple[dict, list[str]]:
    state, setups = set_up(ctx, workload)
    try:
        phase = workload.measure(ctx, state, ctx.seconds)
    finally:
        workload.teardown(state)
    self_usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_usage = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    metrics = {
        "setup_s": (median(setups), "s"),
        "jobs_per_s": (phase.jobs / phase.busy if phase.busy else 0.0, "1/s"),
        "latency_p50_ms": (1000 * (median(phase.latencies) or 0.0), "ms"),
        "peak_rss_mb": ((self_usage + child_usage) / 1024, "MB"),
    }
    report = [f"operations measured: {len(phase.latencies)} "
              f"(one operation = one {workload.unit}, what a user waits for)",
              f"{workload.p50_name}: {_scaled(workload.p50_name, median(phase.latencies))}"]
    found = tail(phase.latencies)
    if found is None:
        report.append(f"{workload.tail_name}: n/a ({len(phase.latencies)} samples; "
                      "a tail needs at least 11)")
    else:
        value, pct, n = found
        report.append(f"{workload.tail_name}: {_scaled(workload.tail_name, value)} "
                      f"(p{pct:.1f} of {n} samples)")
    return metrics, report


def _scaled(name: str, seconds) -> str:
    """``seconds`` in the unit ``name`` ends with (``_s`` or ``_ms``)."""
    if seconds is None:
        return "n/a"
    return f"{1000 * seconds:.3f}" if name.endswith("_ms") else f"{seconds:.4f}"


def census(ctx: Context, workload: Workload, state: dict) -> dict:
    """The traced run's direct, serial calls into every layer on this input set."""
    graphs, tracer, jobs = state["graphs"], ctx.tracer, ctx.jobs
    done, serial = [], []
    for job in jobs.census:
        graph = graphs[job.graph_key]
        result, seconds = layers.run_direct(tracer, graph, job)
        problem = layers.verify(ctx.references, graph, job, result.cut,
                                result.bisection.side(0), result)
        ctx.account(1, [problem] if problem else [])
        done.append((job, result))
        serial.append(seconds)

    op = list(jobs.census[: jobs.census_op])
    engine = workload.engine(ctx)
    with tracer.span("engine.run", census=True):
        began = time.perf_counter()
        results = engine.run(layers.engine_jobs(op), graphs)
        wall = time.perf_counter() - began
    workload.release(engine)
    ctx.account(len(op), layers.verify_engine(ctx.references, graphs, op, results))
    workers = min(engine.jobs, len(op))
    direct = sum(serial[: jobs.census_op])
    out = {"engine.overhead_ms_per_job": 1000 * (wall * workers - direct) / len(op),
           "engine.pool_efficiency": direct / (wall * workers)}

    first = {}
    for job, result in done:
        first.setdefault(job.graph_key, result.bisection)
    problems = []
    for key, bisection in first.items():
        problems += layers.kernel_probe(tracer, graphs[key], bisection)
        problems += layers.shm_probe(tracer, graphs[key])
    problems += layers.cache_probe(tracer, ctx.work / "cache-probe", done)
    ctx.account(2 * len(first) + len(done), problems)
    layers.cli_probe(tracer, ctx.root)

    if workload.name != ServiceMix.name:  # its measured phase already served
        key = GRAPHS[workload.name][0].key
        sample = [j for j in jobs.census if j.graph_key == key][:4]
        problems = layers.service_probe(
            tracer, ctx.root, ctx.workers, ctx.work / "probe-cache",
            ctx.work / f"{key}.edges", sample, ctx.references)
        ctx.account(len(sample) + 2, problems)
    return out


def traced(ctx: Context, workload: Workload) -> tuple[dict, list[str]]:
    """Untraced then traced halves of the measured phase, then the census."""
    tracer = ctx.tracer
    tracer.enabled = True
    state, _ = set_up(ctx, workload)
    try:
        tracer.enabled = False
        base = workload.measure(ctx, state, ctx.seconds / 2)
        tracer.enabled = True
        phase = workload.measure(ctx, state, ctx.seconds / 2)
        extra = census(ctx, workload, state)
    finally:
        workload.teardown(state)
    metrics = layer_metrics(tracer, phase, base, extra)
    report = [f"tracing overhead: {workload.unit} p50 {1000 * median(base.latencies):.3f} ms "
              f"untraced vs {1000 * median(phase.latencies):.3f} ms traced"]
    report += [f"self time {layer}: {metrics[f'{layer}.self_s'][0]:.4f} s"
               for layer in LAYERS]
    return metrics, report


def layer_metrics(tracer: Tracer, phase: Phase, base: Phase, extra: dict) -> dict:
    def durations(name, **attrs):
        return [s.duration for s in tracer.named(name, **attrs)]

    def attr(name, key, **attrs):
        return [s.attrs[key] for s in tracer.named(name, **attrs) if key in s.attrs]

    def seconds(name, **attrs):
        return median(durations(name, **attrs))

    def millis_of(values):
        value = median(values)
        return None if value is None else 1000 * value

    def millis(name):
        return millis_of(durations(name))

    sa_tried = sum(attr("partition.sa", "moves_attempted", stage="standalone"))
    sa_taken = sum(attr("partition.sa", "moves_accepted", stage="standalone"))
    requests = len(tracer.named("service.request"))
    values = {
        "cli.interpreter_s": (seconds("cli.interpreter"), "s"),
        "cli.import_s": (seconds("cli.import"), "s"),
        "graphs.generate_s": (seconds("graphs.generate"), "s"),
        "graphs.parse_s": (seconds("graphs.parse"), "s"),
        "graphs.csr_compile_s": (seconds("graphs.csr_compile"), "s"),
        "graphs.shm_export_s": (seconds("graphs.shm_export"), "s"),
        "graphs.shm_attach_s": (seconds("graphs.shm_attach"), "s"),
        "core.match_s": (seconds("core.match"), "s"),
        "core.compact_s": (seconds("core.compact"), "s"),
        "core.project_s": (seconds("core.project"), "s"),
        "core.compaction_ratio": (statistics.fmean(attr("core.compact", "ratio")), "ratio"),
        "core.ckl_s": (seconds("core.ckl"), "s"),
        "core.csa_s": (seconds("core.csa"), "s"),
        "partition.kl_s": (seconds("partition.kl", stage="standalone"), "s"),
        "partition.kl_swaps": (median(attr("partition.kl", "swaps", stage="standalone")), "count"),
        "partition.fm_s": (seconds("partition.fm", stage="standalone"), "s"),
        "partition.fm_moves": (median(attr("partition.fm", "moves", stage="standalone")), "count"),
        "partition.sa_s": (seconds("partition.sa", stage="standalone"), "s"),
        "partition.sa_moves": (median(attr("partition.sa", "moves_attempted",
                                           stage="standalone")), "count"),
        "partition.sa_accept_ratio": (sa_taken / sa_tried if sa_tried else None, "ratio"),
        "kernels.move_gains_s": (seconds("kernels.move_gains"), "s"),
        "kernels.cut_weight_s": (seconds("kernels.cut_weight"), "s"),
        "engine.overhead_ms_per_job": (extra["engine.overhead_ms_per_job"], "ms"),
        "engine.pool_efficiency": (extra["engine.pool_efficiency"], "ratio"),
        "engine.cache_put_ms": (millis("engine.cache_put"), "ms"),
        "engine.cache_get_ms": (millis("engine.cache_get"), "ms"),
        "engine.cache_hit_rate": (phase.cache_hits / phase.cache_lookups
                                  if phase.cache_lookups else 0.0, "ratio"),
        "service.submit_ms": (millis("service.submit"), "ms"),
        "service.poll_ms": (millis("service.poll"), "ms"),
        "service.polls_per_req": (len(tracer.named("service.poll")) / requests
                                  if requests else None, "count"),
        "service.fetch_ms": (millis("service.fetch"), "ms"),
        "service.queue_wait_p50_ms": (millis_of(attr("service.request", "queue_s")), "ms"),
    }
    own = self_times(tracer.spans)
    for layer in LAYERS:
        values[f"{layer}.self_s"] = (own.get(layer, 0.0), "s")
    untraced = median(base.latencies)
    values["trace.overhead_frac"] = ((median(phase.latencies) - untraced) / untraced, "ratio")
    values["trace.spans"] = (len(tracer.spans), "count")
    missing = [name for name, (value, _unit) in values.items() if value is None]
    if missing:
        raise RuntimeError(f"no measurement for {', '.join(missing)}")
    return values
