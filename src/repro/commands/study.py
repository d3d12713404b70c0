"""``repro-bisect study``: ensemble sweeps over seeds and graph families."""

from __future__ import annotations

import argparse
import sys

from . import add_engine_options, make_engine, positive_int


def _cmd_study(args: argparse.Namespace) -> int:
    from ..service.client import ServiceClientError
    from ..study import (
        build_study_ledger,
        preset_grid,
        render_study,
        run_study_local,
        run_study_remote,
    )

    algorithms = tuple(args.algorithms.split(",")) if args.algorithms else None
    grid = preset_grid(
        args.preset,
        two_n=args.two_n,
        algorithms=algorithms,
        seeds_per_cell=args.seeds,
        graph_seed=args.graph_seed,
        sa_size_factor=args.sa_size_factor,
    )

    def execute():
        if args.remote:
            return run_study_remote(
                grid,
                master_seed=args.seed,
                base_url=args.remote,
                clients=args.clients,
                api_key=args.api_key,
                job_timeout=args.job_timeout,
            )
        return run_study_local(grid, master_seed=args.seed, engine=make_engine(args))

    # Study owns its ledger (kind "study" + the aggregation payload), so
    # _dispatch's generic --ledger wrapper is skipped for this command.
    try:
        if args.ledger is None:
            outcome = execute()
        else:
            from ..obs import run_context, write_ledger

            with run_context(
                jsonl_path=getattr(args, "telemetry", None),
                workload={"command": "study", "preset": grid.name},
            ) as run:
                outcome = execute()
            ledger = build_study_ledger(run, outcome, argv=sys.argv[1:])
            ledger_path = write_ledger(
                ledger, None if args.ledger == "auto" else args.ledger
            )
    except ServiceClientError as exc:
        # Graph setup against a dead/unreachable service fails before any
        # job traffic; surface it instead of reporting an empty study.
        print(f"study: service unreachable: {exc}", file=sys.stderr)
        return 1
    print(render_study(outcome))
    if args.ledger is not None:
        print(f"wrote study ledger {ledger_path}")
    if outcome.failed_requests:
        print(f"study: {outcome.failed_requests} failed request(s)", file=sys.stderr)
        return 1
    return 0


def add_study_parser(sub) -> None:
    study = sub.add_parser(
        "study",
        help="ensemble study: cut-size distributions, phase sweeps, tail fits",
    )
    study.add_argument(
        "--preset", choices=["quick", "phase-sweep", "heuristics"], default="quick",
        help="sweep grid: quick (2 cells), phase-sweep (degree sweeps on "
        "Gbreg and Gnp), heuristics (KL/FM/SA/CKL/CSA on one instance)",
    )
    study.add_argument(
        "--seeds", type=positive_int, default=None,
        help="heuristic seeds per cell (default: the preset's ensemble size)",
    )
    study.add_argument(
        "--two-n", dest="two_n", type=positive_int, default=None,
        help="override the preset's graph size 2n",
    )
    study.add_argument(
        "--algorithms",
        help="comma-separated registry names overriding the preset's heuristics",
    )
    study.add_argument(
        "--seed", type=int, default=0,
        help="master seed: every cell's run seeds derive from it deterministically",
    )
    study.add_argument(
        "--graph-seed", type=int, default=0,
        help="generator seed for each cell's fixed graph instance",
    )
    study.add_argument(
        "--sa-size-factor", type=positive_int, default=2,
        help="temperature length multiplier for sa/csa cells",
    )
    study.add_argument(
        "--remote", metavar="URL",
        help="drive a running `repro-bisect serve` at URL instead of the "
        "local engine (doubles as the service load test)",
    )
    study.add_argument(
        "--clients", type=positive_int, default=8,
        help="worker threads for --remote mode",
    )
    study.add_argument("--api-key", help="service API key for --remote mode")
    study.add_argument(
        "--job-timeout", type=float, default=120.0,
        help="per-job wait timeout in seconds for --remote mode",
    )
    add_engine_options(study)
    study.set_defaults(func=_cmd_study, study_owns_ledger=True)
