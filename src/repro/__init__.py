"""repro — graph bisection with Kernighan-Lin, simulated annealing, and compaction.

A from-scratch reproduction of Bui, Heigham, Jones & Leighton,
*Improving the Performance of the Kernighan-Lin and Simulated Annealing
Graph Bisection Algorithms* (DAC 1989).

Quickstart::

    from repro import gbreg, kernighan_lin, ckl

    sample = gbreg(2000, b=16, d=3, rng=1)   # planted bisection width 16
    plain = kernighan_lin(sample.graph, rng=2)
    compacted = ckl(sample.graph, rng=2)
    print(plain.cut, compacted.cut, sample.planted_width)

See :mod:`repro.graphs` for the three random graph models and the special
families, :mod:`repro.partition` for the algorithms, :mod:`repro.core` for
compaction/CKL/CSA/multilevel, and :mod:`repro.bench` for the paper's
experiment protocol.
"""

from ._exports import lazy_exports

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # substrate
    "Graph",
    "LaggedFibonacciRandom",
    # generators
    "gnp",
    "gnp_with_degree",
    "g2set",
    "g2set_with_degree",
    "gbreg",
    "random_regular_graph",
    "ladder_graph",
    "grid_graph",
    "binary_tree",
    "complete_binary_tree",
    "cycle_graph",
    "path_graph",
    # partitioning
    "Bisection",
    "random_bisection",
    "kernighan_lin",
    "simulated_annealing",
    "AnnealingSchedule",
    "BalanceCost",
    "fiduccia_mattheyses",
    "greedy_improvement",
    "exact_bisection",
    "exact_bisection_width",
    "bisect_paths_and_cycles",
    "recursive_kway",
    "KWayPartition",
    "stoer_wagner",
    "bisection_lower_bound",
    "certify",
    # compaction (the paper's contribution)
    "random_maximal_matching",
    "heavy_edge_matching",
    "compact",
    "Compaction",
    "compacted_bisection",
    "CompactedResult",
    "ckl",
    "csa",
    "multilevel_bisection",
    "MultilevelResult",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".core": (
            "CompactedResult",
            "Compaction",
            "MultilevelResult",
            "ckl",
            "compact",
            "compacted_bisection",
            "csa",
            "heavy_edge_matching",
            "multilevel_bisection",
            "random_maximal_matching",
        ),
        ".graphs": ("Graph",),
        ".graphs.generators": (
            "binary_tree",
            "complete_binary_tree",
            "cycle_graph",
            "g2set",
            "g2set_with_degree",
            "gbreg",
            "gnp",
            "gnp_with_degree",
            "grid_graph",
            "ladder_graph",
            "path_graph",
            "random_regular_graph",
        ),
        ".partition": (
            "AnnealingSchedule",
            "BalanceCost",
            "Bisection",
            "bisect_paths_and_cycles",
            "bisection_lower_bound",
            "certify",
            "exact_bisection",
            "exact_bisection_width",
            "fiduccia_mattheyses",
            "greedy_improvement",
            "kernighan_lin",
            "KWayPartition",
            "random_bisection",
            "recursive_kway",
            "simulated_annealing",
            "stoer_wagner",
        ),
        ".rng": ("LaggedFibonacciRandom",),
    },
)
