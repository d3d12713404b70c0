"""Regenerate ``references.json``: the seeded cut and side-0 digest of every job.

Run from the root of a checkout on a tree whose results are trusted::

    python3 perfbench/make_references.py

Each job runs once, serially, through the program's algorithm registry
(the path the engine's workers take), on graphs generated, saved and parsed
exactly as the benchmark does.  Every result must also pass
``repro.verify.invariants.check_result`` before it is written.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("paper-table", "small-batch", "service-mix", "cli-cold")


def compute(task):
    workload, instance = task
    import inputs
    from layers import load_graph
    from repro.engine import AlgorithmSpec, build_algorithm
    from repro.rng import LaggedFibonacciRandom
    from repro.verify.invariants import check_result
    from tracing import Tracer

    work = HERE / ".work" / f"refs-{os.getpid()}-{workload}-{instance}"
    work.mkdir(parents=True)
    try:
        graphs = {
            spec.key: load_graph(Tracer("references"), spec,
                                 inputs.graph_seed(workload, instance, spec.key),
                                 work / f"{spec.key}.edges")
            for spec in inputs.GRAPHS[workload]
        }
    finally:
        shutil.rmtree(work)
    jobs = inputs.workload_jobs(workload, instance)
    table = {}
    for job in dict.fromkeys(jobs.op + jobs.census):
        graph = graphs[job.graph_key]
        algorithm = build_algorithm(AlgorithmSpec.make(job.algorithm, **job.params))
        result = algorithm(graph, LaggedFibonacciRandom(job.seed))
        violations = check_result(graph, result)
        if violations:
            raise RuntimeError(f"{workload}/{instance}/{job.ident}: {violations}")
        table[job.ident] = f"{result.cut}:{inputs.side0_digest(result.bisection.side(0))}"
    return workload, instance, table


def main() -> int:
    src = Path.cwd() / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"no program at {src / 'repro'}", file=sys.stderr)
        return 2
    for name in [n for n in os.environ if n.startswith("REPRO_")]:
        del os.environ[name]
    sys.path.insert(0, str(src))
    import inputs

    tasks = [(w, i) for w in WORKLOADS for i in range(inputs.INSTANCES)]
    out: dict = {w: {} for w in WORKLOADS}
    context = multiprocessing.get_context("spawn")
    with context.Pool(len(os.sched_getaffinity(0))) as pool:
        for workload, instance, table in pool.imap_unordered(compute, tasks):
            out[workload][str(instance)] = table
            print(f"{workload} {instance}: {len(table)} jobs", flush=True)
    for workload in WORKLOADS:
        out[workload] = dict(sorted(out[workload].items(), key=lambda kv: int(kv[0])))
    with open(inputs.REFERENCES, "w", encoding="utf-8") as stream:
        json.dump(out, stream, indent=0, sort_keys=False)
        stream.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
