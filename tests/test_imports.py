"""Import footprint and the lazy package exports.

A cold ``repro-bisect run`` spends most of its time importing, so each
process must import only the modules its command executes.  The footprint
checks run in fresh interpreters (a clean ``sys.modules``); the export
checks run in process against every package that exports lazily.
"""

from __future__ import annotations

import importlib
import json
import os
import pkgutil
import subprocess
import sys
import textwrap
from pathlib import Path
from types import ModuleType

import pytest

import repro
from repro.graphs.generators import gbreg
from repro.graphs.io import write_edge_list

SRC = Path(repro.__file__).resolve().parents[1]

#: Packages whose ``__init__`` exports through :func:`repro._exports.lazy_exports`.
LAZY_PACKAGES = (
    "repro",
    "repro.core",
    "repro.engine",
    "repro.graphs",
    "repro.graphs.generators",
    "repro.obs",
    "repro.partition",
    "repro.partition.annealing",
)

#: Never loaded by ``import repro.cli``: each belongs to the subcommands,
#: to the numpy backend, or to the worker pool.
NOT_FOR_THE_CLI = (
    "numpy",
    "repro.commands",
    "repro.bench",
    "repro.service",
    "repro.analysis",
    "repro.study",
    "repro.hypergraph",
    "multiprocessing",
)

#: Never loaded by a serial ``run --algorithm kl``: the result cache, the
#: profiler, the pool and its shm and shipping code, every other command's
#: module, and the standard-library modules only those need.
NOT_FOR_A_SERIAL_RUN = (
    "numpy",
    "repro.engine.cache",
    "repro.engine.parallel",
    "repro.obs.profiler",
    "repro.obs.shipper",
    "repro.graphs.shm",
    "repro.commands.bench",
    "repro.commands.check",
    "repro.commands.graphs",
    "repro.commands.lint",
    "repro.commands.netlist",
    "repro.commands.observe",
    "repro.commands.service",
    "repro.commands.study",
    "hashlib",
    "concurrent.futures",
    "multiprocessing",
)


def _probe(code: str, **env: str) -> object:
    """Run ``code`` in a fresh interpreter; it prints one JSON value last."""
    clean = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    clean.update(env, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        env=clean, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def graph_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("imports") / "g.edges"
    write_edge_list(gbreg(200, 8, 3, 4).graph, path)
    return str(path)


_RUN_KL = """
    import contextlib, io, json, sys
    from repro.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["run", {path!r}, "--algorithm", "kl", "--seed", "3",
                     "--show-sides"]) == 0
    lines = out.getvalue().splitlines()
    print(json.dumps({{
        "cut": lines[0].split()[1],
        "side0": lines[1],
        "loaded": sorted(m for m in {watch!r} if m in sys.modules),
    }}))
"""


class TestImportFootprint:
    def test_import_cli_loads_no_subcommand_modules(self):
        loaded = _probe(f"""
            import json, sys
            import repro.cli
            print(json.dumps([m for m in {NOT_FOR_THE_CLI!r} if m in sys.modules]))
        """)
        assert loaded == []

    def test_serial_run_loads_neither_numpy_nor_the_pool(self, graph_file):
        outcome = _probe(_RUN_KL.format(path=graph_file, watch=NOT_FOR_A_SERIAL_RUN))
        assert outcome["loaded"] == []

    def test_module_run_compiles_only_its_own_command(self, graph_file):
        # As `python -m repro.cli` runs it: cli.py is __main__, so nothing
        # may import repro.cli again, which would compile it a second time.
        loaded = _probe(f"""
            import atexit, json, runpy, sys

            watch = {NOT_FOR_A_SERIAL_RUN + ("repro.cli",)!r}
            atexit.register(lambda: print(json.dumps(
                sorted(m for m in watch if m in sys.modules))))
            sys.argv = ["repro-bisect", "run", {graph_file!r}, "--algorithm", "kl"]
            runpy.run_module("repro.cli", run_name="__main__", alter_sys=True)
        """)
        assert loaded == []

    def test_parallel_run_loads_the_pool_in_the_parent(self, graph_file):
        pool = ("repro.engine.parallel", "repro.graphs.shm", "repro.obs.shipper",
                "multiprocessing", "concurrent.futures")
        loaded = _probe(f"""
            import contextlib, io, json, sys
            from repro.cli import main

            with contextlib.redirect_stdout(io.StringIO()):
                assert main(["run", {graph_file!r}, "--algorithm", "kl",
                             "--starts", "2", "--jobs", "2"]) == 0
            print(json.dumps(sorted(m for m in {pool!r} if m in sys.modules)))
        """)
        assert loaded == sorted(pool)

    def test_numpy_backend_loads_numpy_and_matches_array(self, graph_file):
        pytest.importorskip("numpy")
        watch = ("numpy",)
        array = _probe(_RUN_KL.format(path=graph_file, watch=watch),
                       REPRO_KERNEL="array")
        numpy = _probe(_RUN_KL.format(path=graph_file, watch=watch),
                       REPRO_KERNEL="numpy")
        assert array["loaded"] == [] and numpy["loaded"] == ["numpy"]
        assert (numpy["cut"], numpy["side0"]) == (array["cut"], array["side0"])


class TestLazyExports:
    @pytest.fixture(params=LAZY_PACKAGES)
    def package(self, request):
        return importlib.import_module(request.param)

    def test_every_export_resolves(self, package):
        for name in package.__all__:
            value = getattr(package, name)
            assert not isinstance(value, ModuleType), f"{package.__name__}.{name}"

    def test_star_import_binds_every_export(self, package):
        namespace: dict = {}
        exec(f"from {package.__name__} import *", namespace)
        assert set(package.__all__) <= set(namespace)

    def test_dir_lists_every_export(self, package):
        assert set(package.__all__) <= set(dir(package))

    def test_unknown_name_raises(self, package):
        with pytest.raises(AttributeError, match="no_such_export"):
            getattr(package, "no_such_export")
        with pytest.raises(ImportError):
            exec(f"from {package.__name__} import no_such_export", {})

    def test_exports_survive_importing_every_submodule(self, package):
        # Importing a submodule binds its module object on the package; an
        # export of the same name must be bound eagerly to survive that.
        for info in pkgutil.iter_modules(package.__path__):
            importlib.import_module(f"{package.__name__}.{info.name}")
        for name in package.__all__:
            assert not isinstance(getattr(package, name), ModuleType), name

    def test_gnp_is_the_function_after_its_module_is_imported(self):
        import repro.graphs.generators.gnp  # noqa: F401
        from repro.graphs.generators import gnp

        assert callable(gnp)
        assert gnp(10, 0.5, rng=1).num_vertices == 10


class TestForkInheritance:
    def test_warm_pool_leaves_nothing_for_a_worker_to_import(self):
        # Engine.run forks a fresh pool per call, so a module imported on
        # the worker path alone would be compiled again in every worker.
        added = _probe("""
            import json, sys
            from repro.engine import AlgorithmSpec, Engine, Job
            from repro.engine import parallel
            from repro.graphs.generators import gbreg
            from repro.graphs.shm import SharedGraphSegment, ShmGraphRef

            graph = gbreg(120, 4, 3, 2).graph
            spec = AlgorithmSpec.make("kl")
            jobs = [Job("g", spec, seed) for seed in range(3)]
            assert all(r.ok for r in Engine(jobs=2).run(jobs, {"g": graph}))

            segment = SharedGraphSegment.create(graph)
            try:
                parallel._worker_init({"g": ShmGraphRef(segment.name)})
                before = set(sys.modules)
                result = parallel._worker_run(Job("g", spec, 9, job_id="probe"))
                added = sorted(set(sys.modules) - before)
            finally:
                parallel._close_worker_segments()
                parallel._worker_init({})
                segment.close()
                segment.unlink()
            assert result.ok and result.counters["worker_csr_compiles"] == 0
            print(json.dumps(added))
        """)
        assert added == []
