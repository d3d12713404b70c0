"""Process identity gauges: build info, uptime, resident set size.

Three gauges answer "what exactly is this process?" on any ``/metrics``
scrape or ledger without reaching for external agents:

* ``repro_build_info{version,python,start_method}`` — the classic
  Prometheus info-gauge pattern: always ``1``, identity in the labels;
* ``repro_process_uptime_seconds`` — seconds since the process started
  (from ``/proc`` where available, else since this module was imported);
* ``repro_process_rss_bytes`` — current resident set from
  ``/proc/self/statm`` where available, peak RSS via ``resource``
  otherwise.

Gauges are point-in-time, so callers refresh right before rendering:
the service's ``/metrics`` route and the ledger builder both call
:func:`refresh_process_gauges`.  Everything is a no-op under
``REPRO_OBS=0``.
"""

from __future__ import annotations

import os
import sys

from .clock import monotonic_time
from .metrics import REGISTRY, MetricsRegistry, obs_enabled

__all__ = [
    "process_rss_bytes",
    "refresh_process_gauges",
    "set_build_info",
]

#: Monotonic instant this module was imported — the uptime origin when
#: ``/proc`` cannot say when the process started.
_IMPORTED_AT = monotonic_time()

_PAGE_SIZE = os.sysconf("SC_PAGE_SIZE") if hasattr(os, "sysconf") else 4096


def _start_method() -> str:
    """The pool start method the engine would pick, or "unknown"."""
    try:
        from ..engine.executor import _pool_start_method

        return _pool_start_method()
    except Exception:
        return "unknown"


def process_uptime_seconds() -> float:
    """Seconds since this process started.

    Read from ``/proc`` (process start tick against system uptime) where
    available, since obs modules load on first use rather than at process
    start; otherwise measured from this module's import.
    """
    try:
        with open("/proc/self/stat", encoding="ascii") as stream:
            # Field 22 (starttime, in clock ticks since boot) counts from the
            # first field after the parenthesised command name.
            started = int(stream.read().rpartition(")")[2].split()[19])
        with open("/proc/uptime", encoding="ascii") as stream:
            booted = float(stream.read().split()[0])
        return max(0.0, booted - started / os.sysconf("SC_CLK_TCK"))
    except (OSError, IndexError, ValueError, AttributeError):
        return monotonic_time() - _IMPORTED_AT


def process_rss_bytes() -> float | None:
    """Current resident set size in bytes, or ``None`` when unreadable."""
    try:
        with open("/proc/self/statm", encoding="ascii") as stream:
            fields = stream.read().split()
        return float(int(fields[1]) * _PAGE_SIZE)
    except (OSError, IndexError, ValueError):
        pass
    try:
        import resource

        rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        # Linux reports KiB; macOS reports bytes.  Either way it is the
        # *peak*, which is still a usable upper bound on current RSS.
        scale = 1 if sys.platform == "darwin" else 1024
        return float(rss_kib * scale)
    except Exception:
        return None


def set_build_info(registry: MetricsRegistry | None = None) -> None:
    """Publish ``repro_build_info`` — value 1, identity in the labels."""
    if not obs_enabled():
        return
    from .. import __version__

    target = REGISTRY if registry is None else registry
    target.gauge(
        "repro_build_info",
        version=__version__,
        python=f"{sys.version_info.major}.{sys.version_info.minor}.{sys.version_info.micro}",
        start_method=_start_method(),
    ).set(1.0)


def refresh_process_gauges(registry: MetricsRegistry | None = None) -> None:
    """Update build info, uptime, and RSS gauges to right now."""
    if not obs_enabled():
        return
    target = REGISTRY if registry is None else registry
    set_build_info(target)
    target.gauge("repro_process_uptime_seconds").set(process_uptime_seconds())
    rss = process_rss_bytes()
    if rss is not None:
        target.gauge("repro_process_rss_bytes").set(rss)
