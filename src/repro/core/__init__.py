"""Core: the paper's contribution — arterial machinery, FC and AH."""

from .ah import AHIndex
from .arterial import (
    ArterialStats,
    RegionTooLargeError,
    arterial_dimension_stats,
    region_arterial_edges,
)
from .fc import FCIndex
from .hierarchy import LevelAssignment, assign_levels, exact_levels
from .lemmas import (
    CoveringViolation,
    DensityReport,
    check_covering_property,
    check_density_bound,
    check_sliding_window,
)
from .ordering import RankAssignment, compute_ranks, greedy_vertex_cover
from .perturb import PerturbedGraph, perturb_weights, recommended_tau
from .serialize import BundleCorrupted, index_bytes, load_bundle, save_bundle
from .sliding_window import SlidingWindowResult, sliding_window

__all__ = [
    "AHIndex",
    "BundleCorrupted",
    "FCIndex",
    "arterial_dimension_stats",
    "region_arterial_edges",
    "ArterialStats",
    "RegionTooLargeError",
    "LevelAssignment",
    "assign_levels",
    "exact_levels",
    "RankAssignment",
    "compute_ranks",
    "greedy_vertex_cover",
    "PerturbedGraph",
    "perturb_weights",
    "recommended_tau",
    "SlidingWindowResult",
    "sliding_window",
    "index_bytes",
    "save_bundle",
    "load_bundle",
    "CoveringViolation",
    "DensityReport",
    "check_covering_property",
    "check_density_bound",
    "check_sliding_window",
]
