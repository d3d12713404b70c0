"""Batch gain/flip kernels over the CSR arrays, behind a backend switch.

The partition heuristics (:mod:`repro.partition.kl`,
:mod:`repro.partition.fm`, :mod:`repro.partition.annealing.sa`) each have
one kernel over the cached :class:`~repro.graphs.csr.CSRGraph`; its batch
stages run on one of two interchangeable *kernel backends*:

``array``
    Pure-stdlib kernels over the flat ``indptr`` / ``indices`` /
    ``edge_weight`` buffers (plain-list mirrors in the hot loops,
    ``array('q')`` canonical storage).  The default.
``numpy``
    The array kernels with numpy used for the *batch* stages — gain
    initialization via prefix-sum segment sums, cut/side-weight
    recounts, and bulk lagged-Fibonacci stream generation.  Falls back to
    ``array`` when numpy is not installed; never changes a decision.
    numpy is imported on the first ``REPRO_KERNEL=numpy`` call, never by
    importing this package, so the default backend does not pay for it.

Both backends are held to the seeded goldens of
``tests/partition/test_csr_equivalence.py``: identical cuts,
assignments, pass/temperature traces, and RNG stream consumption, bit
for bit.  The switch is the ``REPRO_KERNEL`` environment variable,
checked at kernel entry so tests flip it per call.
"""

from __future__ import annotations

import os
from functools import cache

__all__ = [
    "BACKENDS",
    "KERNEL_ENV",
    "kernel_backend",
    "numpy_available",
]

KERNEL_ENV = "REPRO_KERNEL"
BACKENDS = ("array", "numpy")

@cache
def numpy_available() -> bool:
    """True when the optional numpy backend can actually run.

    The first call attempts the import (numpy is an optional accelerator,
    never a requirement); the answer is cached for the process.
    """
    try:
        import numpy  # noqa: F401
    except ImportError:
        return False
    return True


def kernel_backend() -> str:
    """The active kernel backend name (``array`` | ``numpy``).

    An unknown name raises ``ValueError``.  ``REPRO_KERNEL=numpy``
    silently degrades to ``array`` when numpy is missing, so a config
    written on one host stays valid on another.
    """
    raw = os.environ.get(KERNEL_ENV, "array").strip().lower() or "array"
    if raw not in BACKENDS:
        raise ValueError(
            f"{KERNEL_ENV} must be one of {BACKENDS}, got {raw!r}"
        )
    if raw == "numpy" and not numpy_available():
        return "array"
    return raw
