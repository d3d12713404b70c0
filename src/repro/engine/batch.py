"""Batch spec files: declarative many-graph, many-algorithm runs.

``repro-bisect batch`` consumes a JSON spec describing best-of-R runs
over saved graphs::

    {
      "defaults": {"algorithm": "ckl", "starts": 2, "seed": 0},
      "jobs": [
        {"graph": "g1.edges", "algorithm": "kl"},
        {"graph": "g1.edges", "algorithm": "sa",
         "params": {"size_factor": 4}, "seed": 7, "starts": 4,
         "timeout": 60, "retries": 1, "label": "sa-long"}
      ]
    }

Every entry expands to ``starts`` engine jobs whose seeds derive from the
entry seed exactly like :func:`repro.bench.runner.best_of_starts`, so a
batch run of one entry reproduces the bench protocol bit for bit.
Results come back as plain dicts ready for JSONL output.
"""

from __future__ import annotations

import json
from collections.abc import Sequence
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from ..graphs.io import read_edge_list
from ..rng import LaggedFibonacciRandom, derive_seed
from .executor import Engine
from .job import AlgorithmSpec, Job

__all__ = ["BatchEntry", "read_batch_file", "run_batch"]


@dataclass(frozen=True)
class BatchEntry:
    """One batch line: graph path + algorithm spec + protocol knobs."""

    graph_path: str
    spec: AlgorithmSpec
    seed: int = 0
    starts: int = 1
    timeout: float | None = None
    retries: int | None = None
    label: str = ""

    def describe(self) -> str:
        return self.label or f"{Path(self.graph_path).name}:{self.spec.describe()}"


def read_batch_file(path: str | Path) -> list[BatchEntry]:
    """Parse a batch spec file into entries (defaults applied)."""
    with open(path, encoding="utf-8") as stream:
        raw = json.load(stream)
    if not isinstance(raw, dict) or "jobs" not in raw:
        raise ValueError(f"batch spec {path} must be an object with a 'jobs' list")
    defaults = raw.get("defaults", {})
    base = Path(path).parent
    entries = []
    for position, item in enumerate(raw["jobs"]):
        merged = {**defaults, **item}
        if "graph" not in merged:
            raise ValueError(f"batch job #{position} has no 'graph' path")
        if "algorithm" not in merged:
            raise ValueError(f"batch job #{position} has no 'algorithm' name")
        retries = merged.get("retries")
        if retries is not None and (not isinstance(retries, int) or retries < 0):
            raise ValueError(f"batch job #{position}: 'retries' must be an integer >= 0")
        graph_path = merged["graph"]
        if not Path(graph_path).is_absolute():
            graph_path = str(base / graph_path)
        entries.append(
            BatchEntry(
                graph_path=graph_path,
                spec=AlgorithmSpec.make(
                    merged["algorithm"], **merged.get("params", {})
                ),
                seed=int(merged.get("seed", 0)),
                starts=int(merged.get("starts", 1)),
                timeout=merged.get("timeout"),
                retries=retries,
                label=merged.get("label", ""),
            )
        )
    return entries


def run_batch(entries: Sequence[BatchEntry], engine: Engine) -> list[dict[str, Any]]:
    """Run every entry through ``engine``; one summary dict per entry.

    Failed starts surface in the entry's ``status`` ("ok" only when all
    starts succeeded) without aborting the rest of the batch.
    """
    graphs: dict[str, Any] = {}
    jobs: list[Job] = []
    spans: list[tuple[BatchEntry, int, int]] = []
    for position, entry in enumerate(entries):
        if entry.graph_path not in graphs:
            graphs[entry.graph_path] = read_edge_list(entry.graph_path)
        first = len(jobs)
        master = LaggedFibonacciRandom(entry.seed)
        for index in range(entry.starts):
            jobs.append(
                Job(
                    graph_key=entry.graph_path,
                    algorithm=entry.spec,
                    seed=derive_seed(master, index),
                    job_id=f"batch{position}:start{index}",
                    timeout=entry.timeout,
                    retries=entry.retries,
                    tags=(("entry", position), ("start", index)),
                )
            )
        spans.append((entry, first, len(jobs)))

    results = engine.run(jobs, graphs)

    rows = []
    for entry, first, last in spans:
        chunk = results[first:last]
        good = [r for r in chunk if r.ok]
        best = min(good, key=lambda r: r.cut) if good else None
        rows.append(
            {
                "label": entry.describe(),
                "graph": entry.graph_path,
                "algorithm": entry.spec.describe(),
                "seed": entry.seed,
                "starts": entry.starts,
                "status": "ok" if len(good) == len(chunk) else
                          ("partial" if good else "failed"),
                "cut": best.cut if best else None,
                "seconds": round(sum(r.seconds for r in chunk), 6),
                "start_cuts": [r.cut for r in chunk],
                "cache_hits": sum(1 for r in chunk if r.from_cache),
                "errors": [r.error for r in chunk if r.error],
            }
        )
    return rows
