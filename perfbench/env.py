"""The benchmark's process environment: hermetic settings, leak checks, servers.

Everything the program runs under is set here: the ``REPRO_*`` switches are
cleared so every run measures the defaults, the result cache and the temp
directory point into the run's own work directory, and ``PYTHONPATH`` names
only the checkout's ``src``.  Leak checks compare ``/dev/shm``, that temp
directory and this process's descendants before and after a workload.
"""

from __future__ import annotations

import os
import platform
import select
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SHM_DIR = Path("/dev/shm")


def make_hermetic(src: Path, tmp: Path, cache: Path) -> None:
    """Clear every ``REPRO_*`` variable; point the result cache at ``cache``,
    temp files at ``tmp`` and imports at ``src``."""
    for name in [n for n in os.environ if n.startswith("REPRO_")]:
        del os.environ[name]
    os.environ["REPRO_CACHE_DIR"] = str(cache)
    os.environ["TMPDIR"] = str(tmp)
    os.environ["PYTHONPATH"] = str(src)
    tempfile.tempdir = None  # re-read TMPDIR on next use


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def describe(root: Path) -> dict:
    """What the numbers depend on besides the code: cores, Python, backends."""
    from repro.engine.executor import _pool_start_method
    from repro.kernels import kernel_backend, numpy_available

    commit = "unknown (not a git checkout)"
    if (root / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True, timeout=30)
        if done.returncode == 0:
            commit = done.stdout.strip()
    return {
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": numpy_available(),
        "kernel_backend": kernel_backend(),
        "start_method": _pool_start_method(),
        "commit": commit,
    }


def _descendants() -> dict[int, str]:
    """``{pid: cmdline}`` of every live descendant of this process."""
    parents: dict[int, int] = {}
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        # The command name may hold spaces; the fields resume after ")".
        parents[int(entry.name)] = int(stat.rsplit(")", 1)[1].split()[1])
    found: dict[int, str] = {}
    frontier = [os.getpid()]
    while frontier:
        pid = frontier.pop()
        for child, parent in parents.items():
            if parent == pid and child not in found:
                try:
                    cmd = (Path("/proc") / str(child) / "cmdline").read_bytes()
                except OSError:
                    cmd = b""
                found[child] = cmd.replace(b"\0", b" ").decode(errors="replace")
                frontier.append(child)
    return found


def snapshot(tmp: Path) -> dict:
    shm = set(os.listdir(SHM_DIR)) if SHM_DIR.is_dir() else set()
    files = {str(p.relative_to(tmp)) for p in tmp.rglob("*")} if tmp.is_dir() else set()
    procs = {pid: cmd for pid, cmd in _descendants().items()
             # multiprocessing's resource tracker lives until this process
             # exits; it is stopped explicitly at the end of the run.
             if "resource_tracker" not in cmd}
    return {"shm": shm, "tmp": files, "procs": procs}


def leaks(before: dict, after: dict) -> list[str]:
    """What ``after`` holds that ``before`` did not: segments, files, processes."""
    found = [f"/dev/shm/{n}" for n in sorted(after["shm"] - before["shm"])]
    found += [f"tmp/{n}" for n in sorted(after["tmp"] - before["tmp"])]
    found += [f"process {pid}: {cmd}" for pid, cmd in sorted(after["procs"].items())
              if pid not in before["procs"]]
    return found


def stop_resource_tracker() -> None:
    """Stop and reap multiprocessing's resource tracker if this run started it."""
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def python_cmd(*args: str) -> list[str]:
    return [sys.executable, *args]


class Server:
    """A ``repro-bisect serve --port 0`` subprocess on this checkout."""

    def __init__(self, root: Path, workers: int, cache: Path, timeout: float = 60.0):
        # Unbuffered so the "serving on <url>" banner reaches the pipe
        # while the server runs, not when it exits.
        self.proc = subprocess.Popen(
            python_cmd("-m", "repro.cli", "serve", "--port", "0",
                       "--workers", str(workers), "--cache-dir", str(cache)),
            cwd=root, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            env=dict(os.environ, PYTHONUNBUFFERED="1"),
        )
        fd = self.proc.stdout.fileno()
        deadline = time.monotonic() + timeout
        seen = b""
        while b"\n" not in seen.partition(b"serving on ")[2]:
            left = deadline - time.monotonic()
            chunk = b""
            if left > 0 and select.select([fd], [], [], left)[0]:
                chunk = os.read(fd, 65536)
            if not chunk:
                self.stop()
                raise RuntimeError(f"server did not start: {seen!r}")
            seen += chunk
        self.url = seen.partition(b"serving on ")[2].split()[0].decode()

    def stop(self) -> None:
        """Interrupt the server (as Ctrl-C would), then reap it."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.communicate(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.communicate()
        else:
            self.proc.communicate()
