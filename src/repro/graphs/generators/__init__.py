"""Graph generators: the paper's three random models plus special families.

* :func:`gnp` — ``Gnp(2n, p)`` (Erdos-Renyi),
* :func:`g2set` — ``G2set(2n, pA, pB, bis)`` (planted bisection),
* :func:`gbreg` — ``Gbreg(2n, b, d)`` (regular with planted bisection width,
  the [BCLS87] model most of the paper's experiments use),
* special families: grids, ladders, binary trees, cycles, ... (Section VI).
"""

from ..._exports import lazy_exports

# `gnp` is both a submodule and a function: importing the submodule would
# rebind the name to the module, so the pair is bound eagerly.
from .gnp import gnp, gnp_with_degree

__all__ = [
    "gnp",
    "gnp_with_degree",
    "g2set",
    "g2set_with_degree",
    "PlantedGraph",
    "gbreg",
    "BisectionRegularGraph",
    "feasible_bisection_widths",
    "random_regular_graph",
    "sample_with_degrees",
    "path_graph",
    "cycle_graph",
    "ladder_graph",
    "circular_ladder_graph",
    "grid_graph",
    "binary_tree",
    "complete_binary_tree",
    "disjoint_cycles",
    "complete_graph",
    "complete_bipartite_graph",
    "star_graph",
    "caterpillar_graph",
    "torus_graph",
    "hypercube_graph",
    "random_tree",
    "prufer_decode",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".bregular": ("BisectionRegularGraph", "feasible_bisection_widths", "gbreg"),
        ".planted": ("PlantedGraph", "g2set", "g2set_with_degree"),
        ".regular": ("random_regular_graph", "sample_with_degrees"),
        ".special": (
            "binary_tree",
            "caterpillar_graph",
            "circular_ladder_graph",
            "complete_binary_tree",
            "complete_bipartite_graph",
            "complete_graph",
            "cycle_graph",
            "disjoint_cycles",
            "grid_graph",
            "hypercube_graph",
            "ladder_graph",
            "path_graph",
            "star_graph",
            "torus_graph",
        ),
        ".trees": ("prufer_decode", "random_tree"),
    },
)
