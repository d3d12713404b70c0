"""ASCII dashboards for run ledgers (the ``repro-bisect stats`` command).

Renders one ledger as a terminal dashboard — header, span time breakdown
as horizontal bars, counter table, histogram plots — and renders a
:func:`repro.obs.ledger.diff_ledgers` report as a counter-level
explanation of a perf delta.  All drawing is done by the existing
:mod:`repro.bench.ascii` helpers; there is nothing graphical to install.
"""

from __future__ import annotations

import time
from typing import Any

from ..bench.ascii import horizontal_bars, sparkline
from ..bench.tables import render_generic_table

__all__ = ["render_ledger", "render_ledger_diff", "render_ledger_prometheus"]

#: Counters that record the engine degrading gracefully instead of dying.
#: Any nonzero value deserves a visible callout in the dashboard: the run
#: finished, but not on the path its flags asked for.
_DEGRADATIONS = {
    "engine_pool_unavailable_total": "process pool failed to start",
    "engine_pool_broken_total": "pool broke mid-batch; remaining jobs ran serially",
    "engine_shm_attach_failed_total": "shared-memory attach failed; job reran with a pickled graph",
    "engine_serial_fallbacks_total": "batch degraded to the serial path",
    "engine_cache_store_failures_total": "result cache write failed; result returned uncached",
    "obs_shipment_dropped_total": "worker obs shipment truncated (span/series cap)",
}


def _fmt_num(value: Any) -> str:
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, float):
        return f"{value:,.6g}"
    if isinstance(value, int):
        return f"{value:,}"
    return str(value)


def _header(ledger: dict[str, Any]) -> list[str]:
    env = ledger.get("env", {})
    started = time.strftime(
        "%Y-%m-%d %H:%M:%S", time.localtime(ledger.get("started_at", 0))
    )
    lines = [
        f"run {ledger.get('run_id', '?')}",
        f"  started  {started}   wall {ledger.get('wall_seconds', 0.0):.3f}s",
        f"  env      obs={env.get('obs')} csr={env.get('csr')}"
        + (f" scale={env['scale']}" if env.get("scale") else ""),
    ]
    if ledger.get("argv"):
        lines.append(f"  argv     {' '.join(ledger['argv'])}")
    workload = ledger.get("workload") or {}
    if workload:
        pairs = " ".join(f"{k}={v}" for k, v in sorted(workload.items()))
        lines.append(f"  workload {pairs}")
    return lines


def _degradation_rows(counters: dict[str, Any]) -> list[list[Any]]:
    """Nonzero degradation counters, labeled series summed into the bare name."""
    totals: dict[str, float] = {}
    for series, value in counters.items():
        bare = series.split("{", 1)[0]
        if bare in _DEGRADATIONS:
            totals[bare] = totals.get(bare, 0) + value
    return [
        [name, _fmt_num(totals[name]), _DEGRADATIONS[name]]
        for name in sorted(totals)
        if totals[name]
    ]


def render_ledger(ledger: dict[str, Any]) -> str:
    """One-ledger dashboard: header, spans, counters, gauges, histograms."""
    sections: list[str] = ["\n".join(_header(ledger))]

    degraded = _degradation_rows(ledger.get("counters", {}))
    if degraded:
        sections.append(
            render_generic_table(
                ["event", "count", "meaning"],
                degraded,
                title="degradations (run finished, but not on the requested path)",
            )
        )

    spans = ledger.get("spans", {})
    if spans:
        names = sorted(spans, key=lambda n: -spans[n]["seconds"])
        sections.append(
            "spans (total seconds)\n"
            + horizontal_bars(
                names,
                [round(spans[n]["seconds"], 6) for n in names],
                width=30,
            )
        )
        sections.append(
            render_generic_table(
                ["span", "count", "seconds", "max(s)", "errors"],
                [
                    [
                        name,
                        spans[name].get("count", 0),
                        f"{spans[name].get('seconds', 0.0):.4f}",
                        f"{spans[name].get('max_seconds', 0.0):.4f}",
                        spans[name].get("errors", 0),
                    ]
                    for name in names
                ],
                title="span totals",
            )
        )

    counters = ledger.get("counters", {})
    if counters:
        sections.append(
            render_generic_table(
                ["counter", "value"],
                [[name, _fmt_num(counters[name])] for name in sorted(counters)],
                title="counters",
            )
        )

    gauges = ledger.get("gauges", {})
    if gauges:
        sections.append(
            render_generic_table(
                ["gauge", "value"],
                [[name, _fmt_num(gauges[name])] for name in sorted(gauges)],
                title="gauges",
            )
        )

    histograms = ledger.get("histograms", {})
    for name in sorted(histograms):
        snap = histograms[name]
        counts = snap.get("counts", [])
        count = snap.get("count", 0)
        mean = snap["sum"] / count if count else 0.0
        sections.append(
            f"histogram {name}: count={count} sum={snap.get('sum', 0):,.4g} "
            f"mean={mean:,.4g}\n  buckets {sparkline(counts)}"
        )

    profile = ledger.get("profile")
    if profile and profile.get("stacks"):
        top = profile["stacks"][:8]
        lines = [
            f"profile: {profile.get('samples', 0)} samples @ "
            f"{profile.get('hz', 0):g}Hz over {profile.get('wall_seconds', 0.0):.2f}s"
        ]
        for entry in top:
            leaf = entry["stack"].rsplit(";", 1)[-1]
            lines.append(f"  {entry['count']:>6}  {leaf}")
        if profile.get("truncated"):
            lines.append(f"  ... {profile['truncated']} cooler stacks truncated")
        sections.append("\n".join(lines))

    return "\n\n".join(sections)


def _diff_status(ratio: float | None, delta: float) -> str:
    if delta == 0:
        return "="
    if ratio is None:
        return "new" if delta > 0 else "gone"
    if ratio >= 1.5 or ratio <= 0.67:
        return "<<" if delta < 0 else ">>"
    return "-" if delta < 0 else "+"


def render_ledger_diff(report: dict[str, Any]) -> str:
    """Human-readable counter-level explanation of a ledger diff."""
    lines: list[str] = []
    old_id, new_id = report.get("run_ids", [None, None])
    lines.append(f"ledger diff: {old_id} -> {new_id}")
    wall = report.get("wall", {})
    ratio = wall.get("ratio")
    lines.append(
        f"wall: {wall.get('old', 0.0):.3f}s -> {wall.get('new', 0.0):.3f}s"
        + (f"  ({ratio:.2f}x)" if ratio else "")
    )
    if not report.get("same_workload", True):
        lines.append("WARNING: the two runs describe different workloads; "
                     "counter deltas may not be comparable")
    env_changes = report.get("env_changes", {})
    if env_changes:
        changes = ", ".join(
            f"{key}: {old!r} -> {new!r}" for key, (old, new) in sorted(env_changes.items())
        )
        lines.append(f"env changes: {changes}")

    counter_rows = [row for row in report.get("counters", []) if row["delta"] != 0]
    if counter_rows:
        lines.append(
            render_generic_table(
                ["counter", "old", "new", "delta", "ratio", ""],
                [
                    [
                        row["name"],
                        _fmt_num(row["old"]),
                        _fmt_num(row["new"]),
                        _fmt_num(row["delta"]),
                        "-" if row["ratio"] is None else f"{row['ratio']:.2f}x",
                        _diff_status(row["ratio"], row["delta"]),
                    ]
                    for row in counter_rows
                ],
                title="counters that moved",
            )
        )
    else:
        lines.append("no counter moved between the two runs")

    span_rows = [row for row in report.get("spans", []) if row["delta_seconds"] != 0]
    if span_rows:
        lines.append(
            render_generic_table(
                ["span", "old(s)", "new(s)", "delta(s)", "ratio"],
                [
                    [
                        row["name"],
                        f"{row['old_seconds']:.4f}",
                        f"{row['new_seconds']:.4f}",
                        f"{row['delta_seconds']:+.4f}",
                        "-" if row["ratio"] is None else f"{row['ratio']:.2f}x",
                    ]
                    for row in span_rows
                ],
                title="span time deltas",
            )
        )
    return "\n\n".join(lines)


def render_ledger_prometheus(ledger: dict[str, Any]) -> str:
    """A ledger's counters/gauges/histograms in Prometheus text format."""
    lines: list[str] = []
    for name in sorted(ledger.get("counters", {})):
        bare = name.split("{", 1)[0]
        lines.append(f"# TYPE {bare} counter")
        lines.append(f"{name} {ledger['counters'][name]:g}")
    for name in sorted(ledger.get("gauges", {})):
        bare = name.split("{", 1)[0]
        lines.append(f"# TYPE {bare} gauge")
        lines.append(f"{name} {ledger['gauges'][name]:g}")
    for name in sorted(ledger.get("histograms", {})):
        snap = ledger["histograms"][name]
        bare = name.split("{", 1)[0]
        lines.append(f"# TYPE {bare} histogram")
        cumulative = 0
        for bound, count in zip(
            list(snap.get("buckets", [])) + ["+Inf"], snap.get("counts", [])
        ):
            cumulative += count
            lines.append(f'{bare}_bucket{{le="{bound}"}} {cumulative}')
        lines.append(f"{bare}_sum {snap.get('sum', 0):g}")
        lines.append(f"{bare}_count {snap.get('count', 0)}")
    return "\n".join(lines) + ("\n" if lines else "")
