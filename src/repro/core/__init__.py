"""The paper's contribution: compaction, CKL/CSA, and recursive coalescing."""

from .._exports import lazy_exports

__all__ = [
    "random_maximal_matching",
    "heavy_edge_matching",
    "is_matching",
    "is_maximal_matching",
    "compact",
    "Compaction",
    "compacted_bisection",
    "CompactedResult",
    "coarse_only_bisection",
    "CoarseOnlyResult",
    "ckl",
    "csa",
    "multilevel_bisection",
    "MultilevelResult",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".compaction": ("Compaction", "compact"),
        ".matching": (
            "heavy_edge_matching",
            "is_matching",
            "is_maximal_matching",
            "random_maximal_matching",
        ),
        ".multilevel": ("MultilevelResult", "multilevel_bisection"),
        ".pipeline": (
            "CoarseOnlyResult",
            "CompactedResult",
            "ckl",
            "coarse_only_bisection",
            "compacted_bisection",
            "csa",
        ),
    },
)
