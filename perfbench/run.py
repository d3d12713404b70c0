"""Run one workload of the repository benchmark and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload paper-table --seed 3 --seconds 15 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones (see ``perfbench/README.md``).  The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.  The exit
code is 0 only when every operation matched its reference and nothing
leaked; it is 2, with no result printed, when the checkout holds no
``src/repro`` to measure.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("paper-table", "small-batch", "service-mix", "cli-cold"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    src = root / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure: {src / 'repro'} is missing "
              "(run from the root of a checkout)", file=sys.stderr)
        return 2

    work = HERE / ".work" / f"run-{os.getpid()}"
    try:
        return run(args, root, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run(args, root: Path, work: Path) -> int:
    src = root / "src"
    tmp, cache = work / "tmp", work / "cache"
    tmp.mkdir(parents=True)
    cache.mkdir()
    import env

    env.make_hermetic(src, tmp, cache)
    sys.path.insert(0, str(src))

    import inputs
    import workloads
    from stats import failed_frac
    from tracing import Tracer

    instance = args.seed % inputs.INSTANCES
    references = inputs.load_references(args.workload, instance)
    if not references:
        print(f"perfbench: no references for {args.workload} instance {instance}",
              file=sys.stderr)
        return 2
    run_id = f"{args.workload}-seed{args.seed}-trace{args.trace}-pid{os.getpid()}"
    ctx = workloads.Context(
        root=root, work=work, workload=args.workload, instance=instance,
        seconds=args.seconds, workers=env.nproc(), tracer=Tracer(run_id),
        jobs=inputs.workload_jobs(args.workload, instance), references=references,
    )
    workload = workloads.WORKLOADS[args.workload]
    before = env.snapshot(tmp)
    try:
        if args.trace:
            metrics, report = workloads.traced(ctx, workload)
        else:
            metrics, report = workloads.end_to_end(ctx, workload)
    finally:
        leaked = env.leaks(before, env.snapshot(tmp))
        env.stop_resource_tracker()
    ctx.account(len(leaked), [f"leak: {item}" for item in leaked])

    print(f"perfbench {run_id}: input set {instance} of {inputs.INSTANCES}")
    print("environment: " + " ".join(f"{k}={v}" for k, v in env.describe(root).items()))
    for line in report:
        print(line)
    print(f"failed_frac: {failed_frac(ctx.attempted, ctx.failed):.6f} "
          f"({ctx.failed} of {ctx.attempted} operations)")
    for problem in ctx.problems[:20]:
        print(f"FAILED: {problem}")
    if args.trace:
        traces = HERE / ".work" / "traces"
        traces.mkdir(exist_ok=True)
        ctx.tracer.write(traces / f"{run_id}.jsonl")
        print(f"spans: {traces / f'{run_id}.jsonl'}")

    correct = not ctx.problems
    print(json.dumps({
        "correct": correct,
        "attempted": ctx.attempted,
        "failed": ctx.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1

if __name__ == "__main__":
    sys.exit(main())
