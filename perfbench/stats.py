"""Summary statistics the benchmark reports: medians, tails, failure shares.

Pure functions with no dependency on the program under test, so the unit
tests can exercise them without importing ``repro``.
"""

from __future__ import annotations

import statistics

#: The tail is the highest percentile that keeps this many samples beyond it.
TAIL_BEYOND = 10


def median(values):
    """Median of ``values``; ``None`` for an empty sequence."""
    values = list(values)
    return statistics.median(values) if values else None


def tail(values, beyond: int = TAIL_BEYOND):
    """``(value, percentile, n)`` of the tail, or ``None`` if too few samples.

    The tail is the highest percentile that still has at least ``beyond``
    samples strictly above its rank: with ``n`` sorted samples it is the
    sample at 0-based index ``n - beyond - 1``, which sits at percentile
    ``100 * (n - beyond) / n``.  Fewer than ``beyond + 1`` samples support
    no tail at all.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n < beyond + 1:
        return None
    return ordered[n - beyond - 1], 100.0 * (n - beyond) / n, n


def failed_frac(attempted: int, failed: int) -> float:
    """Failed, timed-out or wrong operations as a share of those attempted.

    A run that attempted nothing measured nothing, which counts as total
    failure rather than a perfect score.
    """
    if attempted <= 0:
        return 1.0
    return failed / attempted
