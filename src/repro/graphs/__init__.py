"""Graph substrate: data structure, generators, traversal, properties, I/O."""

from .._exports import lazy_exports

__all__ = [
    "Graph",
    "CSRGraph",
    "cached_csr",
    "csr_view",
    "graph_fingerprint",
    "vertex_token",
    "bfs_order",
    "bfs_layers",
    "dfs_order",
    "connected_components",
    "is_connected",
    "shortest_path_lengths",
    "cycle_decomposition",
    "degree_histogram",
    "degree_statistics",
    "min_degree",
    "max_degree",
    "is_regular",
    "is_simple",
    "expected_gnp_degree",
    "gnp_probability_for_degree",
    "planted_probability_for_degree",
    "random_bisection_expected_cut",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".csr": ("CSRGraph", "cached_csr", "csr_view"),
        ".graph": ("Graph", "graph_fingerprint", "vertex_token"),
        ".properties": (
            "degree_histogram",
            "degree_statistics",
            "expected_gnp_degree",
            "gnp_probability_for_degree",
            "is_regular",
            "is_simple",
            "max_degree",
            "min_degree",
            "planted_probability_for_degree",
            "random_bisection_expected_cut",
        ),
        ".traversal": (
            "bfs_layers",
            "bfs_order",
            "connected_components",
            "cycle_decomposition",
            "dfs_order",
            "is_connected",
            "shortest_path_lengths",
        ),
    },
)
