"""Stepping-based parallel shortest paths.

A point-to-point query runs a threshold-stepped relaxation loop over a
frontier of vertex copies; pruning strategies (early termination,
bidirectional meet-in-the-middle, goal-directed keys, and their
combination) cut the searched region without changing the answer.
Batches of queries share work either through a multi-source
bidirectional search over the query graph or through one SSSP per
vertex of a cover of the query edges.
"""

from .batch import (
    BATCH_ALGOS,
    BatchAnswer,
    BatchTooLarge,
    QueryGraph,
    baseline_batch,
    build_query_graph,
    exact_vertex_cover,
    greedy_vertex_cover,
    multi_bids,
    vc_sssp_batch,
)
from .bench import BenchConfig, BenchError, BenchReport, run_bench
from .engine import StepPolicy, default_policy, run_search, sssp
from .graph import (
    ComponentInfo,
    CsrGraph,
    build_csr,
    generate_uniform_weights,
    largest_component,
)
from .heuristics import (
    check_consistent,
    consistency_violation,
    heuristic_for_graph,
    induced_arc_weights,
)
from .io import load_coords, load_graph, load_pairs, save_coords, save_graph, save_pairs
from .oracle import dijkstra, percentile_target
from .ppsp import STRATEGIES, PpspAnswer, ppsp
from .workloads import PATTERNS, pattern_pairs, percentile_pairs

__version__ = "0.1.0"

__all__ = [
    "BATCH_ALGOS",
    "BatchAnswer",
    "BatchTooLarge",
    "BenchConfig",
    "BenchError",
    "BenchReport",
    "ComponentInfo",
    "CsrGraph",
    "PATTERNS",
    "PpspAnswer",
    "QueryGraph",
    "STRATEGIES",
    "StepPolicy",
    "baseline_batch",
    "build_csr",
    "build_query_graph",
    "check_consistent",
    "consistency_violation",
    "default_policy",
    "dijkstra",
    "exact_vertex_cover",
    "generate_uniform_weights",
    "greedy_vertex_cover",
    "heuristic_for_graph",
    "induced_arc_weights",
    "largest_component",
    "load_coords",
    "load_graph",
    "load_pairs",
    "multi_bids",
    "pattern_pairs",
    "percentile_pairs",
    "percentile_target",
    "ppsp",
    "run_bench",
    "run_search",
    "save_coords",
    "save_graph",
    "save_pairs",
    "sssp",
    "vc_sssp_batch",
]
