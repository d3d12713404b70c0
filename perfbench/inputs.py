"""Seeded inputs of every workload, and the references their outputs must match.

``--seed`` picks one of :data:`INSTANCES` input sets (``seed % INSTANCES``).
An input set fixes the graphs (generated from seeds derived from the
workload name and the instance) and every job seed.  ``references.json``
stores, for every job of every input set, the cut and a digest of side 0
computed on a known-good tree by ``make_references.py``; each operation the
benchmark makes is checked against that entry.

This module imports ``repro`` lazily so the unit tests can use
:func:`check_outcome` and :func:`side0_digest` without the program.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path

INSTANCES = 16
REFERENCES = Path(__file__).with_name("references.json")

#: Annealing temperature length, as a multiple of |V| (SA and CSA).  1 keeps
#: a paper-table sweep near two seconds on two cores.
SA_SIZE_FACTOR = 1

PAPER_ALGORITHMS = ("kl", "fm", "sa", "ckl", "csa")
#: Seeded starts per algorithm in one sweep.  One start halves the sweep, so
#: a run holds twice the sweeps; with two, run medians spread 0.15 over ten
#: seeds against 0.10 with one.
PAPER_STARTS = 1
BATCH_SEEDS = 40  # per (graph, algorithm) in one small-batch batch
SERVICE_POOL = 24  # fresh seeds per algorithm in one service-mix round
CLI_POOL = 32


@dataclass(frozen=True)
class GraphSpec:
    key: str
    family: str  # "gbreg" | "gnp"
    vertices: int
    param: float  # planted width b for gbreg, mean degree for gnp


GRAPHS = {
    "paper-table": (GraphSpec("gbreg5000", "gbreg", 5000, 16),
                    GraphSpec("gnp5000", "gnp", 5000, 2.5)),
    "small-batch": (GraphSpec("gbreg500", "gbreg", 500, 16),
                    GraphSpec("gnp500", "gnp", 500, 2.5)),
    "service-mix": (GraphSpec("gbreg2000", "gbreg", 2000, 16),),
    "cli-cold": (GraphSpec("gbreg2000", "gbreg", 2000, 16),),
}


@dataclass(frozen=True)
class JobSpec:
    graph_key: str
    algorithm: str
    seed: int

    @property
    def ident(self) -> str:
        return f"{self.graph_key}/{self.algorithm}/{self.seed}"

    @property
    def params(self) -> dict:
        return {"size_factor": SA_SIZE_FACTOR} if self.algorithm in ("sa", "csa") else {}


@dataclass(frozen=True)
class WorkloadJobs:
    """The jobs of one input set.

    ``op`` is one operation's job list (a sweep or a batch) or, for the
    request-at-a-time workloads, the pool requests draw seeds from.
    ``census`` is what the traced run executes directly in-process: a
    sample of ``op`` followed by one job of each algorithm ``op`` lacks, so
    every layer gets a reading on every workload.
    """

    op: tuple[JobSpec, ...]
    census: tuple[JobSpec, ...]
    census_op: int  # the first census_op census jobs are drawn from op


def rng_for(*parts) -> random.Random:
    """A generator seeded by the joined ``parts``, the same on every platform."""
    return random.Random("/".join(str(p) for p in parts))


def graph_seed(workload: str, instance: int, key: str) -> int:
    return rng_for(workload, instance, "graph", key).randrange(2**31)


def _seeds(workload: str, instance: int, label: str, count: int) -> list[int]:
    rng = rng_for(workload, instance, "jobs", label)
    return [rng.randrange(2**31) for _ in range(count)]


def workload_jobs(workload: str, instance: int) -> WorkloadJobs:
    keys = [g.key for g in GRAPHS[workload]]
    if workload == "paper-table":
        # Longest jobs first, so the last ones to finish are short and the
        # sweep's wall time does not hinge on where two CSA runs land.
        op = [JobSpec(k, a, s) for a in reversed(PAPER_ALGORITHMS) for k in keys
              for s in _seeds(workload, instance, f"{k}/{a}", PAPER_STARTS)]
        census_op = len(op)
    elif workload == "small-batch":
        op = [JobSpec(k, a, s) for k in keys for a in ("kl", "fm")
              for s in _seeds(workload, instance, f"{k}/{a}", BATCH_SEEDS)]
        census_op = len(op)
    elif workload == "service-mix":
        kl = _seeds(workload, instance, "kl", SERVICE_POOL)
        ckl = _seeds(workload, instance, "ckl", SERVICE_POOL)
        # Interleaved so that any prefix mixes both algorithms.
        op = [JobSpec(keys[0], a, s) for pair in zip(kl, ckl)
              for a, s in zip(("kl", "ckl"), pair)]
        census_op = 8
    elif workload == "cli-cold":
        op = [JobSpec(keys[0], "kl", s)
              for s in _seeds(workload, instance, "kl", CLI_POOL)]
        census_op = 8
    else:
        raise KeyError(workload)
    present = {j.algorithm for j in op}
    probes = [JobSpec(keys[0], a, _seeds(workload, instance, f"probe/{a}", 1)[0])
              for a in PAPER_ALGORITHMS if a not in present]
    return WorkloadJobs(tuple(op), tuple(op[:census_op]) + tuple(probes), census_op)


def build_graph(spec: GraphSpec, seed: int):
    from repro.graphs.generators import gbreg, gnp_with_degree
    from repro.rng import resolve_rng

    if spec.family == "gbreg":
        return gbreg(spec.vertices, int(spec.param), 3, resolve_rng(seed)).graph
    return gnp_with_degree(spec.vertices, spec.param, resolve_rng(seed))


def label_of(token: str) -> str:
    """The vertex label inside an engine vertex token (``"int:17"`` -> ``"17"``)."""
    return token.split(":", 1)[1]


def side0_digest(labels) -> str:
    """Order-free digest of the side-0 vertex labels."""
    text = "\n".join(sorted(str(label) for label in labels))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def load_references(workload: str, instance: int, path: Path = REFERENCES) -> dict:
    """``{job ident: "cut:digest"}`` for one input set (empty when missing)."""
    with open(path, encoding="utf-8") as stream:
        table = json.load(stream)
    return table.get(workload, {}).get(str(instance), {})


def check_outcome(references: dict, job: JobSpec, cut, labels) -> str | None:
    """``None`` when ``(cut, side-0 labels)`` match the job's reference, else why not."""
    expected = references.get(job.ident)
    if expected is None:
        return f"{job.ident}: no reference"
    want_cut, want_digest = expected.split(":")
    if cut is None or int(want_cut) != cut:
        return f"{job.ident}: cut {cut} != reference {want_cut}"
    digest = side0_digest(labels)
    if digest != want_digest:
        return f"{job.ident}: side-0 digest {digest} != reference {want_digest}"
    return None
