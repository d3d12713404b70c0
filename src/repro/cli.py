"""Command-line interface: generate graphs, bisect them, print paper tables.

Examples::

    # Generate a Gbreg graph and save it
    repro-bisect generate gbreg --vertices 1000 --width 16 --degree 3 \
        --seed 7 --out graph.edges

    # Bisect a saved graph with every algorithm
    repro-bisect run graph.edges --algorithm ckl --seed 1

    # Best-of-4 starts fanned out over 4 worker processes
    repro-bisect run graph.edges --algorithm ckl --starts 4 --jobs 4

    # Regenerate one of the paper's tables at the current REPRO_SCALE,
    # in parallel, with the result cache making reruns near-free
    repro-bisect table gbreg-d3 --jobs 4

    # Run a declarative batch spec through the engine
    repro-bisect batch jobs.json --jobs 4 --out results.jsonl

    # Canonical fingerprint + stats of a saved graph
    repro-bisect info graph.edges

    # Record a run ledger, then explain a perf delta counter by counter
    repro-bisect table gbreg-d3 --ledger auto
    repro-bisect stats --diff <old.json> <new.json>

    # Verify every registered algorithm against the invariant, exact,
    # and metamorphic oracles (exits non-zero on any violation)
    repro-bisect check --json report.json

    # Serve the engine over HTTP, then load-test it
    repro-bisect serve --port 8642 --workers 4
    repro-bisect load --url http://127.0.0.1:8642 --requests 500 --concurrency 32

    # Interactive graph session (CSV import, path queries, remote submit)
    repro-bisect repl

    # Inspect or bound the content-addressed result cache
    repro-bisect cache stats
    repro-bisect cache prune --max-bytes 50000000
"""

from __future__ import annotations

import argparse
import os
import sys
from importlib import import_module

__all__ = ["main"]

#: Every subcommand, in help order -> its module under :mod:`repro.commands`,
#: which holds the handler and an ``add_<command>_parser(sub)`` function.
#: A process imports only the module of the command it runs, and handlers
#: import what they execute inside their bodies.
_COMMANDS = {
    "generate": "graphs",
    "run": "run",
    "kway": "graphs",
    "score": "graphs",
    "netlist": "netlist",
    "report": "bench",
    "table": "bench",
    "batch": "bench",
    "info": "graphs",
    "perf": "bench",
    "stats": "observe",
    "trace": "observe",
    "top": "observe",
    "check": "check",
    "lint": "lint",
    "serve": "service",
    "repl": "service",
    "load": "service",
    "cache": "observe",
    "study": "study",
}


def _parser(commands: tuple[str, ...]) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-bisect",
        description="Graph bisection: KL, SA, and the compaction heuristic (DAC 1989).",
    )
    # A parser holding fewer than all commands still prints the full choice
    # list in its usage line, so a top-level error reads the same either way.
    partial = len(commands) < len(_COMMANDS)
    sub = parser.add_subparsers(
        dest="command",
        required=True,
        metavar="{" + ",".join(_COMMANDS) + "}" if partial else None,
    )
    for command in commands:
        module = import_module(f"repro.commands.{_COMMANDS[command]}")
        getattr(module, f"add_{command}_parser")(sub)
    return parser


def build_parser() -> argparse.ArgumentParser:
    """The parser for every subcommand (imports every command module)."""
    return _parser(tuple(_COMMANDS))


def main(argv: list[str] | None = None) -> int:
    try:
        return _dispatch(argv)
    except KeyboardInterrupt:
        # Conventional 128+SIGINT exit; the newline keeps the shell prompt
        # off the interrupted command's output line.
        print(file=sys.stderr)
        return 130
    except BrokenPipeError:
        # Downstream closed early (e.g. `repro-bisect ... | head`).  Point
        # stdout at devnull so the interpreter's exit-time flush doesn't
        # raise a second BrokenPipeError, and exit cleanly.
        try:
            fd = sys.stdout.fileno()
        except (OSError, ValueError):  # stdout is not a real file (tests)
            fd = None
        if fd is not None:
            os.dup2(os.open(os.devnull, os.O_WRONLY), fd)
        return 0


def _dispatch(argv: list[str] | None = None) -> int:
    # Build only the subparser of the command being run; help, no command
    # and unknown commands get the full parser and its messages.
    tokens = sys.argv[1:] if argv is None else argv
    command = tokens[0] if tokens else None
    if command in _COMMANDS:
        parser = _parser((command,))
    else:
        parser = build_parser()
    args = parser.parse_args(argv)
    ledger_target = getattr(args, "ledger", None)
    if getattr(args, "study_owns_ledger", False):
        ledger_target = None  # study builds its own (kind "study") ledger
    profile_target = getattr(args, "profile", None)
    # The same opt-in test as obs.profiler.profiling_enabled, read here so
    # that a command that is not profiled never imports the profiler.
    wants_profile = profile_target is not None or (
        os.environ.get("REPRO_PROFILE", "0") not in ("", "0")
    )
    if ledger_target is None and not wants_profile:
        return args.func(args)

    if wants_profile:
        from .obs.profiler import maybe_profile

        profiling = maybe_profile(force=True)
    else:
        from contextlib import nullcontext

        profiling = nullcontext()
    run = None
    with profiling as profiler:
        if ledger_target is None:
            exit_code = args.func(args)
        else:
            from .obs import run_context

            # The trace JSONL shares the engine telemetry file, so one tail
            # shows both streams correlated by run_id.
            with run_context(
                jsonl_path=getattr(args, "telemetry", None),
                workload={"command": args.command},
            ) as run:
                exit_code = args.func(args)

    if profiler is not None and profile_target is not None:
        path = profiler.write_collapsed(profile_target)
        print(f"wrote profile {path} ({profiler.samples} samples @ {profiler.hz:g}Hz)")
    if ledger_target is not None:
        from .obs import build_ledger, write_ledger

        ledger = build_ledger(
            run, argv=list(argv) if argv is not None else sys.argv[1:]
        )
        if profiler is not None:
            ledger["profile"] = profiler.summary()
        path = write_ledger(ledger, None if ledger_target == "auto" else ledger_target)
        print(f"wrote ledger {path}")
    elif profiler is not None and profile_target is None:
        # REPRO_PROFILE=1 with nowhere to put the profile: don't drop it
        # silently, show the hottest leaves.
        leaves = sorted(
            profiler.leaf_totals().items(), key=lambda item: (-item[1], item[0])
        )
        for label, count in leaves[:10]:
            print(f"profile: {count:6d}  {label}", file=sys.stderr)
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
