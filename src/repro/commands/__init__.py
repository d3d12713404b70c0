"""The ``repro-bisect`` subcommands, one module per group of commands.

Each module holds the handlers of commands that import the same packages,
and an ``add_<command>_parser(sub)`` function per command that builds its
subparser.  :mod:`repro.cli` maps every command to its module and imports
only the module of the command it runs, so a ``run`` compiles neither the
other handlers nor their option tables.

This package holds the option helpers several commands share.  Like the
command modules, it imports only the standard library at module level:
handlers import what they run inside their bodies.
"""

from __future__ import annotations

import argparse
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from ..engine.executor import Engine

__all__ = [
    "GRAPH_ALGORITHMS",
    "add_engine_options",
    "add_obs_options",
    "make_engine",
    "non_negative_int",
    "positive_int",
]

# Graph bisectors exposed on `run` (all resolved through the engine registry).
GRAPH_ALGORITHMS = ("ckl", "csa", "cycles", "fm", "greedy", "kl", "multilevel", "sa")


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be at least 1")
    return value


def non_negative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be at least 0")
    return value


def add_obs_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--ledger", metavar="PATH",
        help="write a run ledger (counters, spans, env) after the command; "
        "'auto' content-addresses it next to the result cache",
    )
    parser.add_argument(
        "--profile", metavar="PATH",
        help="sample this process during the command and write a "
        "collapsed-stack profile (flamegraph.pl / speedscope format); "
        "REPRO_PROFILE=1 opts in without the flag",
    )


def add_engine_options(parser: argparse.ArgumentParser, cache: bool = True) -> None:
    parser.add_argument(
        "--jobs", type=positive_int, default=1,
        help="worker processes for the execution engine (1 = serial)",
    )
    parser.add_argument(
        "--telemetry",
        help="append engine telemetry events (and trace spans) to this JSONL file",
    )
    add_obs_options(parser)
    if cache:
        parser.add_argument(
            "--no-cache", action="store_true", help="disable the result cache"
        )
        parser.add_argument(
            "--cache-dir",
            help="result cache directory (default: $REPRO_CACHE_DIR or "
            "~/.cache/repro-bisect)",
        )


def make_engine(
    args: argparse.Namespace,
    cache: bool = True,
    timeout: float | None = None,
    retries: int = 0,
) -> Engine:
    from ..engine.executor import Engine
    from ..engine.telemetry import Telemetry

    store = None
    if cache and not getattr(args, "no_cache", False):
        from ..engine.cache import ResultCache

        store = ResultCache(getattr(args, "cache_dir", None))
    return Engine(
        jobs=args.jobs,
        cache=store,
        telemetry=Telemetry(getattr(args, "telemetry", None)),
        timeout=timeout,
        retries=retries,
    )
