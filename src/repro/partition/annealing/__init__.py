"""Simulated annealing bisection: the algorithm, schedules, and cost models."""

from ..._exports import lazy_exports

__all__ = [
    "simulated_annealing",
    "SAResult",
    "AnnealingSchedule",
    "estimate_initial_temperature",
    "BalanceCost",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".cost": ("BalanceCost",),
        ".sa": ("SAResult", "simulated_annealing"),
        ".schedule": ("AnnealingSchedule", "estimate_initial_temperature"),
    },
)
